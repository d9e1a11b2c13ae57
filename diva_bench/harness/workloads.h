#ifndef DIVA_BENCH_WORKLOADS_H_
#define DIVA_BENCH_WORKLOADS_H_

// Input generation for the three workloads. Every input is a file in
// the run's work directory, made from the workload seed alone, so the
// program under test sees only CSV, schema, Sigma and delta files:
//
//   data.csv, schema.txt, sigma.txt   the relation and its constraints
//   delta_NNN.txt                     row deltas (anonymize_cli format)
//   probe/                            the small serve base the batch
//                                     workloads' traced runs serve
//
// Seeds. DIVA's cost swings 2-3x when the QI columns are redrawn
// (measured 2.1-6.8 s across data seeds at 100k Pop-Syn rows), which
// no run-to-run bound could absorb. So the QI columns come from a pinned
// shape seed, and the workload seed redraws everything else: the
// identifier and sensitive columns, the deltas' rows and regions, and
// the serve request sequence. A claim is re-checked on another shape
// with --shape-seed.
//
// popsyn_100k  Pop-Syn from datagen, Sigma generated on the QI shape
//              (generate_workload's settings). Deltas replace the
//              sensitive payload of the last rows.
// regions_churn  The bench_scale shape written as CSV: rows split over
//              64 regions of two groups each, 3 constraints per region
//              with 70% lower bounds, AGE/JOB noise. Deltas churn 1% of
//              the rows inside two seeded regions, each delete matched by
//              an insert of the same REGION and GROUP, so counts and
//              dictionaries stay fixed.
// serve_mix    A 12-region base of 3,072 rows whose last rows sit in
//              regions 0 and 1; each delta replaces exactly those rows,
//              so the served base after any update is a pure function of
//              that update's delta.

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "constraint/diversity_constraint.h"
#include "relation/schema.h"

namespace diva_bench {

struct WorkloadSpec {
  std::string name;
  bool batch = true;
  size_t rows = 0;
  size_t regions = 0;        // regions shapes only
  size_t deltas = 0;         // delta files (a batch round applies them all)
  size_t churn_rows = 0;     // rows deleted (and re-inserted) per delta
  bool incremental = false;  // publish with incremental capture on
};

/// The spec of `workload` (full or tiny size); InvalidArgument when the
/// name is unknown.
diva::Result<WorkloadSpec> FindWorkload(const std::string& workload, bool tiny);

/// The default seeds (README.md names the held-out ones).
inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr uint64_t kDefaultShapeSeed = 5;

/// Writes the inputs of `spec` into `dir` (created if missing).
diva::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                            uint64_t shape_seed, const std::string& dir);

std::string DataPath(const std::string& dir);
std::string SchemaPath(const std::string& dir);
std::string SigmaPath(const std::string& dir);
std::string DeltaPath(const std::string& dir, size_t index);
std::string ProbeDir(const std::string& dir);

/// A whole file's bytes.
diva::Result<std::string> ReadText(const std::string& path);

/// Reads a schema file ("NAME,role,kind" per line, the CLI format).
diva::Result<std::shared_ptr<const diva::Schema>> LoadSchema(
    const std::string& path);

/// FNV-1a over the names and bytes of every input file in `dir`
/// (sorted, subdirectories excluded), and the data CSV's size.
struct InputFacts {
  uint64_t hash = 0;
  uint64_t csv_bytes = 0;
  size_t files = 0;
};
bool HashInputs(const std::string& dir, InputFacts* facts);

}  // namespace diva_bench

#endif  // DIVA_BENCH_WORKLOADS_H_
