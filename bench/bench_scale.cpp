// End-to-end scale benchmark — the component-sharding gate's probe.
//
// One pinned shape, scale_1m (bench/scale_shape.h: 1,000,000 rows, 64
// independent conflict-graph components), built in memory (no I/O in
// the timed region).
//
// The timed region is the whole RunDiva pipeline (graph build, sharded
// coloring, integration over a Mondrian baseline, suppression, report).
// Two legs, min-over-reps each: DivaOptions::shard on (concurrent
// per-component work items) and off (the same per-shard computations,
// sequential). The published relation must hash identically across legs
// and reps — the shard flag is an execution knob, never a semantic one
// (core/shard.h) — and the deterministic report metrics gate CI via
// tools/bench_diff.py against bench/baselines/BENCH_scale.json. Timing
// keys are informational per machine; the sharding payoff itself is
// gated in CI as the t1/t8 wall ratio across two DIVA_THREADS runs.
//
// Usage: bench_scale [out.json]

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/scale_shape.h"
#include "common/timer.h"
#include "core/diva.h"

using namespace diva;         // NOLINT
using namespace diva::bench;  // NOLINT

namespace {

LegResult RunLeg(const ScaleWorkload& workload, bool shard) {
  DivaOptions options;
  options.k = kK;
  options.seed = kSeed;
  options.shard = shard;
  options.baseline = BaselineAlgorithm::kMondrian;

  LegResult result;
  for (size_t rep = 0; rep < Reps(); ++rep) {
    StopWatch watch;
    auto run = RunDiva(workload.relation, workload.constraints, options);
    double secs = watch.ElapsedSeconds();
    DIVA_CHECK_MSG(run.ok(), run.status().ToString());
    FoldRep(&result, rep, secs, *run);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  PrintPreamble("bench_scale",
                "1M-row sharded pipeline — component-sharding gate");

  StopWatch build_watch;
  ScaleWorkload workload = BuildScaleWorkload();
  std::printf("built %zu rows, %zu constraints in %.2fs (threads=%zu)\n",
              workload.relation.NumRows(), workload.constraints.size(),
              build_watch.ElapsedSeconds(), ResolveThreadCount(0));

  LegResult on = RunLeg(workload, /*shard=*/true);
  LegResult off = RunLeg(workload, /*shard=*/false);
  DIVA_CHECK_MSG(on.output_hash == off.output_hash,
                 "shard flag changed the published bytes");
  DIVA_CHECK_MSG(on.report.shards == kNumRegions,
                 "unexpected component count");

  double shard_speedup = off.wall_seconds / on.wall_seconds;
  std::printf(
      "scale_1m     shards=%zu residual=%zu complete=%d steps=%llu "
      "backtracks=%llu\n"
      "             wall=%.3fs (min of %zu, shard on)  shard-off=%.3fs "
      "(x%.2f)\n"
      "             sigma_rows=%zu repair_cells=%zu\n"
      "             phases: clustering=%.3fs anonymize=%.3fs "
      "integrate=%.3fs\n\n",
      on.report.shards, on.report.residual_rows,
      (int)on.report.clustering_complete,
      (unsigned long long)on.report.coloring_steps,
      (unsigned long long)on.report.backtracks, on.wall_seconds, Reps(),
      off.wall_seconds, shard_speedup, on.report.sigma_rows,
      on.report.repair_cells, on.report.clustering_seconds,
      on.report.anonymize_seconds, on.report.integrate_seconds);

  std::string json = "{\n  \"scale_1m\": {\n";
  bool first = true;
  AppendMetric(&json, "steps", (double)on.report.coloring_steps, &first);
  AppendMetric(&json, "backtracks", (double)on.report.backtracks, &first);
  AppendMetric(&json, "complete", on.report.clustering_complete ? 1 : 0,
               &first);
  AppendMetric(&json, "shards", (double)on.report.shards, &first);
  AppendMetric(&json, "residual_rows", (double)on.report.residual_rows,
               &first);
  AppendMetric(&json, "sigma_rows", (double)on.report.sigma_rows, &first);
  AppendMetric(&json, "repair_cells", (double)on.report.repair_cells, &first);
  AppendMetric(&json, "colored_constraints",
               (double)on.report.colored_constraints, &first);
  AppendMetric(&json, "wall_seconds", on.wall_seconds, &first);
  AppendMetric(&json, "shard_off_seconds", off.wall_seconds, &first);
  AppendMetric(&json, "clustering_seconds", on.report.clustering_seconds,
               &first);
  AppendMetric(&json, "anonymize_seconds", on.report.anonymize_seconds,
               &first);
  AppendMetric(&json, "integrate_seconds", on.report.integrate_seconds,
               &first);
  // exec_-prefixed: the on/off wall ratio is machine- and
  // scheduling-dependent, never gated by bench_diff.
  AppendMetric(&json, "exec_shard_speedup", shard_speedup, &first);
  json += "\n  }\n}\n";

  WriteJsonArg(argc, argv, json);
  return 0;
}
