// Incremental re-anonymization benchmark — the delta-path gate's probe.
//
// The pinned bench_scale shape (bench/scale_shape.h: 1,000,000 rows,
// 64 independent conflict-graph components, 192 constraints, seed 1000)
// under a 1% row churn confined to regions 0 and 1: 5,000 deletes
// alternating across the two regions and 5,000 inserts mirroring the
// deleted rows' REGION and GROUP (so every constraint's occurrence count
// is exactly restored, and no dictionary grows). 62 of the 64 components are
// untouched by construction, so the incremental leg adopts them and
// re-colors only the two dirty ones.
//
// Two timed legs, min-over-reps each, both producing the post-delta
// anonymization: cold — a plain RunDiva over the post-delta relation;
// incremental — ApplyDelta(prior snapshot, delta). Snapshot capture and
// the delta build are untimed prep. The published bytes must hash
// identically across legs and reps (the incremental path is an
// execution shortcut, never a semantic one — core/incremental.h), and
// the deterministic metrics (including shards_reused = 62 and the
// output hash) gate CI via tools/bench_diff.py against
// bench/baselines/BENCH_incremental.json. The cold/incremental wall
// ratio is exec_-prefixed (informational per machine); CI gates it
// >= 5x in the bench-gate job.
//
// Usage: bench_incremental [out.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/scale_shape.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/diva.h"
#include "core/incremental.h"

using namespace diva;         // NOLINT
using namespace diva::bench;  // NOLINT

namespace {

/// 1% churn: 5,000 deletes + 5,000 matching inserts, regions 0-1 only.
constexpr size_t kChurnRows = 5000;
constexpr size_t kChurnRegions = 2;

/// 1% churn confined to regions 0-1: delete the first kChurnRows rows
/// whose region is < kChurnRegions, insert one row per delete carrying
/// the deleted row's REGION and GROUP (restoring every constraint count
/// exactly) with seeded AGE/JOB/DIAG drawn from the existing domains.
DeltaBatch BuildChurn() {
  DeltaBatch delta;
  Rng rng(kSeed + 1);
  for (size_t i = 0; i < kNumRows && delta.deleted.size() < kChurnRows; ++i) {
    const size_t region = i % kNumRegions;
    if (region >= kChurnRegions) continue;
    delta.deleted.push_back(static_cast<RowId>(i));
    const size_t group = 2 * region + (i / kNumRegions) % 2;
    delta.inserted.push_back(
        {"r" + std::to_string(region), "g" + std::to_string(group),
         std::to_string(18 + rng.NextBounded(60)),
         "j" + std::to_string(rng.NextBounded(kNumJobs)),
         "d" + std::to_string(rng.NextBounded(kNumDiagnoses))});
  }
  DIVA_CHECK_MSG(delta.deleted.size() == kChurnRows, "churn underflow");
  return delta;
}

DivaOptions BenchOptions() {
  DivaOptions options;
  options.k = kK;
  options.seed = kSeed;
  options.baseline = BaselineAlgorithm::kMondrian;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  PrintPreamble("bench_incremental",
                "1M-row 1% churn — incremental re-anonymization gate");

  StopWatch build_watch;
  ScaleWorkload workload = BuildScaleWorkload();
  DeltaBatch delta = BuildChurn();
  std::printf("built %zu rows, %zu constraints, %zu+%zu churn in %.2fs\n",
              workload.relation.NumRows(), workload.constraints.size(),
              delta.deleted.size(), delta.inserted.size(),
              build_watch.ElapsedSeconds());

  // Untimed prep: the prior run whose snapshot the incremental leg
  // replays against. Its cost is the cold pipeline + capture, paid once
  // per serving epoch, not per delta.
  DivaOptions prior_options = BenchOptions();
  prior_options.incremental = true;
  StopWatch prior_watch;
  auto prior =
      RunDiva(workload.relation, workload.constraints, prior_options);
  DIVA_CHECK_MSG(prior.ok(), prior.status().ToString());
  DIVA_CHECK_MSG(prior->snapshot != nullptr,
                 "prior run did not capture a reusable snapshot");
  std::printf("prior run + snapshot capture: %.3fs (untimed prep)\n",
              prior_watch.ElapsedSeconds());

  auto post = ApplyDeltaToRelation(*prior->snapshot->input, delta);
  DIVA_CHECK_MSG(post.ok(), post.status().ToString());
  DIVA_CHECK_MSG(post->NumRows() == kNumRows, "churn changed the row count");

  const DivaOptions options = BenchOptions();

  // Each rep runs both legs back to back, alternating which goes first,
  // so a load burst on a noisy host lands on both legs rather than on
  // whichever leg happened to be timed then. Each leg keeps its minimum.
  LegResult cold;
  LegResult incremental;
  uint64_t shards_reused = 0;
  auto time_cold = [&](size_t rep) {
    StopWatch watch;
    auto run = RunDiva(*post, workload.constraints, options);
    double secs = watch.ElapsedSeconds();
    DIVA_CHECK_MSG(run.ok(), run.status().ToString());
    FoldRep(&cold, rep, secs, *run);
  };
  auto time_incremental = [&](size_t rep) {
    std::vector<counters::Sample> before = counters::Snapshot();
    StopWatch watch;
    auto run = ApplyDelta(*prior->snapshot, delta, options);
    double secs = watch.ElapsedSeconds();
    DIVA_CHECK_MSG(run.ok(), run.status().ToString());
    if (rep == 0) {
      for (const counters::Sample& sample :
           counters::Delta(before, counters::Snapshot())) {
        if (sample.name == "incremental.shards_reused") {
          shards_reused = sample.value;
        }
      }
      DIVA_CHECK_MSG(run->snapshot != nullptr,
                     "incremental run did not re-capture a snapshot");
    }
    FoldRep(&incremental, rep, secs, *run);
  };
  for (size_t rep = 0; rep < Reps(); ++rep) {
    if (rep % 2 == 0) {
      time_cold(rep);
      time_incremental(rep);
    } else {
      time_incremental(rep);
      time_cold(rep);
    }
  }

  // The headline contract: the shortcut never changes the bytes.
  DIVA_CHECK_MSG(incremental.output_hash == cold.output_hash,
                 "incremental output diverged from the cold run");
  DIVA_CHECK_MSG(cold.report.shards == kNumRegions,
                 "unexpected component count");
  DIVA_CHECK_MSG(shards_reused == kNumRegions - kChurnRegions,
                 "churn confined to 2 regions must reuse 62 components");

  // Audited replay (untimed): the publish-or-refuse path accepts the
  // incremental output.
  DivaOptions audited_options = BenchOptions();
  audited_options.audit = true;
  auto audited = ApplyDelta(*prior->snapshot, delta, audited_options);
  DIVA_CHECK_MSG(audited.ok(), audited.status().ToString());
  DIVA_CHECK_MSG(audited->report.audited, "audit did not run");
  DIVA_CHECK_MSG(HashRelation(audited->relation) == cold.output_hash,
                 "audited incremental output diverged");

  double speedup = cold.wall_seconds / incremental.wall_seconds;
  std::printf(
      "churn_1m     shards=%zu reused=%llu recolored=%llu complete=%d\n"
      "             cold=%.3fs incremental=%.3fs (min of %zu)  x%.2f\n"
      "             sigma_rows=%zu repair_cells=%zu hash=%016llx\n\n",
      cold.report.shards, (unsigned long long)shards_reused,
      (unsigned long long)(kNumRegions - shards_reused),
      (int)cold.report.clustering_complete, cold.wall_seconds,
      incremental.wall_seconds, Reps(), speedup, cold.report.sigma_rows,
      cold.report.repair_cells, (unsigned long long)cold.output_hash);

  std::string json = "{\n  \"churn_1m\": {\n";
  bool first = true;
  AppendMetric(&json, "steps", (double)cold.report.coloring_steps, &first);
  AppendMetric(&json, "backtracks", (double)cold.report.backtracks, &first);
  AppendMetric(&json, "complete", cold.report.clustering_complete ? 1 : 0,
               &first);
  AppendMetric(&json, "shards", (double)cold.report.shards, &first);
  AppendMetric(&json, "shards_reused", (double)shards_reused, &first);
  AppendMetric(&json, "residual_rows", (double)cold.report.residual_rows,
               &first);
  AppendMetric(&json, "sigma_rows", (double)cold.report.sigma_rows, &first);
  AppendMetric(&json, "repair_cells", (double)cold.report.repair_cells,
               &first);
  // The 64-bit output hash split into exact-in-double halves: gated at
  // tolerance 0, this pins byte identity across machines and widths.
  AppendIntMetric(&json, "output_hash_lo", cold.output_hash & 0xffffffffULL,
                  &first);
  AppendIntMetric(&json, "output_hash_hi", cold.output_hash >> 32, &first);
  AppendMetric(&json, "cold_wall_seconds", cold.wall_seconds, &first);
  AppendMetric(&json, "incremental_wall_seconds", incremental.wall_seconds,
               &first);
  // exec_-prefixed: machine- and scheduling-dependent, never gated by
  // bench_diff; the bench-gate CI job asserts >= 5 on its own runs.
  AppendMetric(&json, "exec_incremental_speedup", speedup, &first);
  json += "\n  }\n}\n";

  WriteJsonArg(argc, argv, json);
  return 0;
}
