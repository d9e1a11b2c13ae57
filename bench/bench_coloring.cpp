// Coloring hot-path microbenchmark — the perf-regression gate's probe.
//
// Two fixed shapes, chosen to exercise the two regimes the kernels
// optimize:
//
//   fig4_popsyn  — the Fig. 4 running configuration: PopSyn at 4,000
//                  rows, 12 proportional constraints, moderate overlap.
//                  Enumeration-bound (wide targets, many candidate
//                  windows per node).
//   fig5_stress  — the Fig. 5 Credit profile pushed into the
//                  backtracking regime: 24 constraints, conflict rate
//                  0.9, slack 0.05. Search-bound (thousands of steps,
//                  hundreds of backtracks) — the memo's home turf.
//
// For each shape: min-over-reps wall time, steps/sec, deterministic
// search counters, and a memo-off control run that must produce a
// byte-identical outcome (the ratio of the two is reported). With a
// file argument, a JSON report is written for tools/bench_diff.py to
// compare against bench/baselines/BENCH_coloring.json: deterministic
// metrics gate CI, timings are informational (machines differ).
//
// Usage: bench_coloring [out.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/counters.h"
#include "common/timer.h"
#include "constraint/generator.h"
#include "core/coloring.h"
#include "core/constraint_graph.h"
#include "datagen/profiles.h"

using namespace diva;         // NOLINT
using namespace diva::bench;  // NOLINT

namespace {

struct Shape {
  const char* name;
  DatasetProfile profile;
  size_t num_rows;  // 0 = profile default
  size_t count;
  double slack;
  double conflict;
  size_t min_support;
  uint64_t step_budget;
};

// Pinned shapes — changing any knob invalidates the recorded baseline.
constexpr Shape kShapes[] = {
    {"fig4_popsyn", DatasetProfile::kPopSyn, 4000, 12, 0.3, 0.4, 2, 150000},
    {"fig5_stress", DatasetProfile::kCredit, 0, 24, 0.05, 0.9, 15, 40000},
};

constexpr uint64_t kSeed = 1000;

struct ShapeResult {
  uint64_t steps = 0;
  uint64_t backtracks = 0;
  bool complete = false;
  double wall_seconds = 0.0;       // min over reps, memo on
  double memo_off_seconds = 0.0;   // min over reps, memo off
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_evictions = 0;
  uint64_t target_sorts = 0;
  uint64_t attempts = 0;
};

bool SameOutcome(const ColoringOutcome& a, const ColoringOutcome& b) {
  return a.assignment == b.assignment && a.preserved == b.preserved &&
         a.chosen_clusters == b.chosen_clusters && a.steps == b.steps &&
         a.backtracks == b.backtracks && a.complete == b.complete;
}

uint64_t CounterDelta(const std::vector<counters::Sample>& delta,
                      const std::string& name) {
  for (const counters::Sample& sample : delta) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

ShapeResult RunShape(const Shape& shape) {
  ProfileOptions profile_options;
  if (shape.num_rows > 0) profile_options.num_rows = shape.num_rows;
  profile_options.seed = kSeed;
  auto relation = GenerateProfile(shape.profile, profile_options);
  DIVA_CHECK_MSG(relation.ok(), relation.status().ToString());

  ConstraintGenOptions gen;
  gen.count = shape.count;
  gen.slack = shape.slack;
  gen.min_support = shape.min_support;
  gen.target_conflict = shape.conflict;
  gen.seed = kSeed;
  auto constraints = GenerateConstraints(*relation, gen);
  DIVA_CHECK_MSG(constraints.ok(), constraints.status().ToString());

  ConstraintGraph graph = BuildConstraintGraph(*relation, *constraints);

  ColoringOptions options;
  options.k = 10;
  options.strategy = SelectionStrategy::kMaxFanOut;
  options.seed = kSeed;
  options.step_budget = shape.step_budget;

  ShapeResult result;
  ColoringOutcome reference;
  auto before = counters::Snapshot();
  for (size_t rep = 0; rep < Reps(); ++rep) {
    StopWatch watch;
    ColoringOutcome outcome =
        ColorConstraints(*relation, *constraints, graph, options);
    double secs = watch.ElapsedSeconds();
    if (rep == 0) {
      // Counter deltas from the first rep only — every rep is identical.
      auto delta = counters::Delta(before, counters::Snapshot());
      result.memo_hits = CounterDelta(delta, "coloring.memo_hits");
      result.memo_misses = CounterDelta(delta, "coloring.memo_misses");
      result.memo_evictions = CounterDelta(delta, "coloring.memo_evictions");
      result.target_sorts = CounterDelta(delta, "coloring.target_sorts");
      result.attempts = CounterDelta(delta, "coloring.attempts");
      result.wall_seconds = secs;
      reference = std::move(outcome);
    } else {
      DIVA_CHECK_MSG(SameOutcome(outcome, reference),
                     "coloring outcome differs across reps");
      if (secs < result.wall_seconds) result.wall_seconds = secs;
    }
  }
  result.steps = reference.steps;
  result.backtracks = reference.backtracks;
  result.complete = reference.complete;

  // Memo-off control: identical outcome bytes, typically slower.
  ColoringOptions no_memo = options;
  no_memo.memo = false;
  for (size_t rep = 0; rep < Reps(); ++rep) {
    StopWatch watch;
    ColoringOutcome outcome =
        ColorConstraints(*relation, *constraints, graph, no_memo);
    double secs = watch.ElapsedSeconds();
    DIVA_CHECK_MSG(SameOutcome(outcome, reference),
                   "memo changed the coloring outcome");
    if (rep == 0 || secs < result.memo_off_seconds) {
      result.memo_off_seconds = secs;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  PrintPreamble("bench_coloring", "coloring hot path — perf-regression gate");

  std::string json = "{\n";
  for (size_t s = 0; s < sizeof(kShapes) / sizeof(kShapes[0]); ++s) {
    const Shape& shape = kShapes[s];
    ShapeResult r = RunShape(shape);
    double sps = r.steps / r.wall_seconds;
    double memo_speedup = r.memo_off_seconds / r.wall_seconds;
    std::printf(
        "%-12s steps=%llu backtracks=%llu complete=%d\n"
        "             wall=%.4fs (min of %zu)  steps/sec=%.0f  "
        "memo-off=%.4fs (x%.2f)\n"
        "             memo: hits=%llu misses=%llu evictions=%llu  "
        "target_sorts=%llu attempts=%llu\n\n",
        shape.name, (unsigned long long)r.steps,
        (unsigned long long)r.backtracks, (int)r.complete, r.wall_seconds,
        Reps(), sps, r.memo_off_seconds, memo_speedup,
        (unsigned long long)r.memo_hits, (unsigned long long)r.memo_misses,
        (unsigned long long)r.memo_evictions,
        (unsigned long long)r.target_sorts, (unsigned long long)r.attempts);

    json += "  \"";
    json += shape.name;
    json += "\": {\n";
    bool first = true;
    AppendMetric(&json, "steps", (double)r.steps, &first);
    AppendMetric(&json, "backtracks", (double)r.backtracks, &first);
    AppendMetric(&json, "complete", r.complete ? 1 : 0, &first);
    AppendMetric(&json, "memo_hits", (double)r.memo_hits, &first);
    AppendMetric(&json, "memo_misses", (double)r.memo_misses, &first);
    AppendMetric(&json, "memo_evictions", (double)r.memo_evictions, &first);
    AppendMetric(&json, "target_sorts", (double)r.target_sorts, &first);
    AppendMetric(&json, "attempts", (double)r.attempts, &first);
    AppendMetric(&json, "wall_seconds", r.wall_seconds, &first);
    AppendMetric(&json, "memo_off_seconds", r.memo_off_seconds, &first);
    AppendMetric(&json, "steps_per_sec", sps, &first);
    AppendMetric(&json, "memo_speedup", memo_speedup, &first);
    json += "\n  }";
    json += (s + 1 < sizeof(kShapes) / sizeof(kShapes[0])) ? ",\n" : "\n";
  }
  json += "}\n";

  WriteJsonArg(argc, argv, json);
  return 0;
}
