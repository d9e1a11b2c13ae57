#ifndef DIVA_BENCH_SCALE_SHAPE_H_
#define DIVA_BENCH_SCALE_SHAPE_H_

// The pinned 1M-row shape that bench_scale and bench_incremental run:
// 1,000,000 rows over a REGION attribute with 64 values and a GROUP
// attribute with 128 values, correlated so that the 3 constraints
// written per region (one on the region, one on each of its two groups)
// form exactly 64 independent conflict-graph components of ~15,625
// target rows each. Every row is targeted (empty residual), and each
// constraint's lower bound demands ~70% of its occurrences survive, so
// the coloring phase does real per-component cluster-selection work
// instead of a satisfiability no-op.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "constraint/parser.h"
#include "core/diva.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace diva {
namespace bench {

// Pinned shape — changing any knob invalidates the recorded baseline.
constexpr size_t kNumRows = 1000000;
constexpr size_t kNumRegions = 64;   // = components in the conflict graph
constexpr size_t kNumJobs = 40;      // uncorrelated QI noise
constexpr size_t kNumDiagnoses = 8;  // sensitive domain
constexpr size_t kK = 10;
constexpr uint64_t kSeed = 1000;
/// Each constraint's lower bound as a fraction of its occurrence count:
/// the coloring must preserve at least this share per target value.
constexpr uint64_t kPreserveNumerator = 7;
constexpr uint64_t kPreserveDenominator = 10;

struct ScaleWorkload {
  Relation relation;
  ConstraintSet constraints;
};

/// Builds the pinned relation and its 192-constraint Sigma. Row i gets
/// REGION i%64 and GROUP 2*region + parity, so each region's rows split
/// across exactly two groups; AGE and JOB are seeded noise. The three
/// constraints of a region overlap pairwise through the region's target
/// set and touch no other region's rows: 64 components by construction.
inline ScaleWorkload BuildScaleWorkload() {
  auto schema = Schema::Make({
      {"REGION", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"GROUP", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"AGE", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"JOB", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"DIAG", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK_MSG(schema.ok(), schema.status().ToString());
  Relation relation(*schema);

  std::vector<ValueCode> regions(kNumRegions);
  std::vector<ValueCode> groups(2 * kNumRegions);
  for (size_t r = 0; r < kNumRegions; ++r) {
    regions[r] = relation.Encode(0, "r" + std::to_string(r));
  }
  for (size_t g = 0; g < 2 * kNumRegions; ++g) {
    groups[g] = relation.Encode(1, "g" + std::to_string(g));
  }
  std::vector<ValueCode> ages(60);
  for (size_t a = 0; a < ages.size(); ++a) {
    ages[a] = relation.Encode(2, std::to_string(18 + a));
  }
  std::vector<ValueCode> jobs(kNumJobs);
  for (size_t j = 0; j < kNumJobs; ++j) {
    jobs[j] = relation.Encode(3, "j" + std::to_string(j));
  }
  std::vector<ValueCode> diagnoses(kNumDiagnoses);
  for (size_t d = 0; d < kNumDiagnoses; ++d) {
    diagnoses[d] = relation.Encode(4, "d" + std::to_string(d));
  }

  std::vector<uint64_t> region_count(kNumRegions, 0);
  std::vector<uint64_t> group_count(2 * kNumRegions, 0);
  Rng rng(kSeed);
  std::vector<ValueCode> row(5);
  for (size_t i = 0; i < kNumRows; ++i) {
    const size_t region = i % kNumRegions;
    const size_t group = 2 * region + (i / kNumRegions) % 2;
    ++region_count[region];
    ++group_count[group];
    row[0] = regions[region];
    row[1] = groups[group];
    row[2] = ages[rng.NextBounded(ages.size())];
    row[3] = jobs[rng.NextBounded(kNumJobs)];
    row[4] = diagnoses[rng.NextBounded(kNumDiagnoses)];
    relation.AppendRow(row);
  }

  auto lower = [](uint64_t count) {
    uint64_t bound = count * kPreserveNumerator / kPreserveDenominator;
    return bound < kK ? kK : bound;
  };
  std::string sigma;
  char line[96];
  for (size_t r = 0; r < kNumRegions; ++r) {
    std::snprintf(line, sizeof(line), "REGION[r%zu] in [%llu,%llu]\n", r,
                  (unsigned long long)lower(region_count[r]),
                  (unsigned long long)region_count[r]);
    sigma += line;
    for (size_t g = 2 * r; g < 2 * r + 2; ++g) {
      std::snprintf(line, sizeof(line), "GROUP[g%zu] in [%llu,%llu]\n", g,
                    (unsigned long long)lower(group_count[g]),
                    (unsigned long long)group_count[g]);
      sigma += line;
    }
  }
  auto constraints = ParseConstraintSet(relation.schema(), sigma);
  DIVA_CHECK_MSG(constraints.ok(), constraints.status().ToString());
  return {std::move(relation), std::move(constraints).value()};
}

/// Order-sensitive FNV-1a over every published cell — cheap byte
/// identity for 1M-row outputs without serializing them.
inline uint64_t HashRelation(const Relation& relation) {
  uint64_t hash = 1469598103934665603ULL;
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (const ValueCode code : relation.Row(row)) {
      hash ^= static_cast<uint64_t>(code) + 1;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

/// One timed leg of a scale bench: its fastest rep, the published
/// bytes' hash and the first rep's report.
struct LegResult {
  double wall_seconds = 0.0;  // min over reps
  uint64_t output_hash = 0;
  DivaReport report;
};

/// Folds rep `rep` of a leg (its wall time and run) into `leg`; every
/// rep must publish the same bytes.
inline void FoldRep(LegResult* leg, size_t rep, double secs,
                    const DivaResult& run) {
  uint64_t hash = HashRelation(run.relation);
  if (rep == 0) {
    leg->wall_seconds = secs;
    leg->output_hash = hash;
    leg->report = run.report;
  } else {
    DIVA_CHECK_MSG(hash == leg->output_hash,
                   "published bytes differ across reps");
    if (secs < leg->wall_seconds) leg->wall_seconds = secs;
  }
}

}  // namespace bench
}  // namespace diva

#endif  // DIVA_BENCH_SCALE_SHAPE_H_
