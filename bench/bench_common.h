#ifndef DIVA_BENCH_BENCH_COMMON_H_
#define DIVA_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "anon/anonymizer.h"
#include "common/counters.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/diva.h"
#include "datagen/profiles.h"
#include "metrics/metrics.h"

namespace diva {
namespace bench {

/// Workload scale factor from DIVA_BENCH_SCALE (default 0.05). The
/// paper's |R| axes are multiplied by this before running: the authors'
/// Python implementation ran for minutes-to-hours per point on a 32-core
/// server; scaled C++ runs preserve the curves' shapes on one core in
/// seconds. Set DIVA_BENCH_SCALE=1 to run paper-size workloads.
inline double Scale() {
  if (const char* env = std::getenv("DIVA_BENCH_SCALE")) {
    double scale = std::atof(env);
    if (scale > 0.0) return scale;
  }
  return 0.05;
}

/// Repetitions per data point from DIVA_BENCH_REPS (default 3; the paper
/// averages 5 executions).
inline size_t Reps() {
  if (const char* env = std::getenv("DIVA_BENCH_REPS")) {
    long reps = std::atol(env);
    if (reps > 0) return static_cast<size_t>(reps);
  }
  return 3;
}

/// Coloring step budget used by the figure benches; bounds DIVA-Basic's
/// exponential search so sweeps terminate.
inline uint64_t ColoringBudget() {
  if (const char* env = std::getenv("DIVA_BENCH_BUDGET")) {
    long long budget = std::atoll(env);
    if (budget > 0) return static_cast<uint64_t>(budget);
  }
  return 150000;
}

/// Thread-count sweep from DIVA_BENCH_THREADS (comma-separated widths,
/// e.g. "1,2,4,8"; 0 = hardware). Default: 1 and, when the machine has
/// more than one core, the full hardware width. Results are identical at
/// every width — the sweep only measures speed.
inline std::vector<size_t> BenchThreads() {
  std::vector<size_t> sweep;
  if (const char* env = std::getenv("DIVA_BENCH_THREADS")) {
    std::string spec(env);
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      long width = std::atol(spec.substr(pos, comma - pos).c_str());
      if (width >= 0) {
        sweep.push_back(ResolveThreadCount(static_cast<size_t>(width)));
      }
      pos = comma + 1;
    }
  }
  if (sweep.empty()) {
    sweep.push_back(1);
    if (HardwareConcurrency() > 1) sweep.push_back(HardwareConcurrency());
  }
  return sweep;
}

struct RunResult {
  double accuracy = 0.0;
  double seconds = 0.0;
  bool complete = false;
  /// Counter delta for the run as a JSON array (common/counters.h), so
  /// every BENCH_*.json row can carry the work counters next to its
  /// timings. Averaged() keeps the last rep's counters.
  std::string counters_json = "[]";
};

/// One DIVA run; accuracy per DESIGN.md §3 (discernibility x satisfied).
/// `threads` follows the knob semantics of common/parallel.h; the default
/// defers to DIVA_THREADS so existing single-width benches are unchanged.
inline RunResult RunDivaOnce(const Relation& relation,
                             const ConstraintSet& constraints,
                             SelectionStrategy strategy, size_t k,
                             uint64_t seed, size_t threads = EnvThreads()) {
  DivaOptions options;
  options.k = k;
  options.strategy = strategy;
  options.seed = seed;
  options.threads = threads;
  options.coloring_budget = ColoringBudget();
  options.anonymizer.seed = seed;

  StopWatch watch;
  auto result = RunDiva(relation, constraints, options);
  RunResult out;
  out.seconds = watch.ElapsedSeconds();
  if (result.ok()) {
    out.accuracy = OverallAccuracy(result->relation, k, constraints);
    out.complete = result->report.clustering_complete;
    out.counters_json = counters::ToJson(result->report.counters);
  }
  return out;
}

/// One baseline run (plain k-anonymization, then scored against the same
/// constraints — baselines make no diversity promise).
inline RunResult RunBaselineOnce(const Relation& relation,
                                 const ConstraintSet& constraints,
                                 BaselineAlgorithm algorithm, size_t k,
                                 uint64_t seed) {
  DivaOptions factory_options;
  factory_options.baseline = algorithm;
  factory_options.anonymizer.seed = seed;
  auto anonymizer = MakeBaselineAnonymizer(factory_options);

  // Baselines carry no report, so the counter delta is taken around the
  // call directly (meaningful for one run at a time, like the benches).
  std::vector<counters::Sample> before = counters::Snapshot();
  StopWatch watch;
  auto result = Anonymize(anonymizer.get(), relation, k);
  RunResult out;
  out.seconds = watch.ElapsedSeconds();
  if (result.ok()) {
    out.accuracy = OverallAccuracy(*result, k, constraints);
    out.complete = true;
    out.counters_json =
        counters::ToJson(counters::Delta(before, counters::Snapshot()));
  }
  return out;
}

/// Averages `reps` runs of `fn(seed)`.
template <typename Fn>
RunResult Averaged(size_t reps, Fn&& fn) {
  RunResult total;
  for (size_t rep = 0; rep < reps; ++rep) {
    RunResult one = fn(/*seed=*/1000 + 31 * rep);
    total.accuracy += one.accuracy;
    total.seconds += one.seconds;
    total.complete = total.complete || one.complete;
    total.counters_json = std::move(one.counters_json);
  }
  double n = static_cast<double>(reps);
  total.accuracy /= n;
  total.seconds /= n;
  return total;
}

/// printf-style aligned series table.
class SeriesTable {
 public:
  SeriesTable(std::string x_label, std::vector<std::string> series)
      : x_label_(std::move(x_label)), series_(std::move(series)) {
    std::printf("%-14s", x_label_.c_str());
    for (const auto& name : series_) std::printf("  %12s", name.c_str());
    std::printf("\n");
    std::printf("%s\n",
                std::string(14 + series_.size() * 14, '-').c_str());
  }

  void Row(const std::string& x, const std::vector<double>& values) {
    std::printf("%-14s", x.c_str());
    for (double v : values) std::printf("  %12.4f", v);
    std::printf("\n");
  }

 private:
  std::string x_label_;
  std::vector<std::string> series_;
};

/// One sweep point of a figure pair: its x label and one averaged result
/// per series.
struct SweepRow {
  std::string x;
  std::vector<RunResult> results;
};

/// Prints `field` of every result in `rows` as one table under `title`,
/// so a figure pair that shares one sweep prints its runtime and its
/// accuracy table from a single run.
inline void PrintSweepTable(const char* title, const std::string& x_label,
                            const std::vector<std::string>& series,
                            const std::vector<SweepRow>& rows,
                            double RunResult::*field) {
  std::printf("\n%s\n", title);
  SeriesTable table(x_label, series);
  for (const SweepRow& row : rows) {
    std::vector<double> values;
    for (const RunResult& result : row.results) values.push_back(result.*field);
    table.Row(row.x, values);
  }
}

/// Appends `"key": value` (%.6g) to a BENCH_*.json object body, after a
/// ",\n" unless it is the object's first key.
inline void AppendMetric(std::string* json, const char* key, double value,
                         bool* first) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s    \"%s\": %.6g", *first ? "" : ",\n",
                key, value);
  *json += buf;
  *first = false;
}

/// AppendMetric with exact integer output: %.6g would round a 32-bit
/// hash half.
inline void AppendIntMetric(std::string* json, const char* key,
                            uint64_t value, bool* first) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s    \"%s\": %llu", *first ? "" : ",\n",
                key, (unsigned long long)value);
  *json += buf;
  *first = false;
}

/// Writes `json` to argv[1] when the bench was given an output path.
inline void WriteJsonArg(int argc, char** argv, const std::string& json) {
  if (argc <= 1) return;
  std::FILE* out = std::fopen(argv[1], "w");
  DIVA_CHECK_MSG(out != nullptr, "cannot open output file");
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", argv[1]);
}

inline void PrintPreamble(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("scale=%.3g, reps=%zu, coloring budget=%llu\n", Scale(), Reps(),
              static_cast<unsigned long long>(ColoringBudget()));
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace diva

#endif  // DIVA_BENCH_BENCH_COMMON_H_
