#ifndef DIVA_BENCH_RUNS_H_
#define DIVA_BENCH_RUNS_H_

// The timed runs. An untraced run (--trace 0) reports the end-to-end
// metrics; a traced run (--trace 1) reports the per-layer split. Both
// run every output check.

#include <map>
#include <string>
#include <vector>

#include "layered.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace diva_bench {

struct RunConfig {
  WorkloadSpec spec;
  std::string dir;  // generated inputs; outputs are written beside them
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Pipeline thread width of the batch workloads.
  size_t width = 1;
};

void RunBatch(const RunConfig& config, RunResult* result);

/// One publish at thread width 1 (the `footprint` mode): prints
/// "footprint <peak resident MiB>". Exit status 0 on success.
int RunFootprint(const RunConfig& config);
void RunServeMix(const RunConfig& config, RunResult* result);

/// Client-observed serve figures (milliseconds unless named otherwise).
struct ServeFigures {
  std::vector<double> setup_s;       // daemon CPU seconds to the first ping
  std::vector<double> setup_wall_s;  // and the wall seconds
  std::vector<double> anonymize_ms;
  std::vector<double> fetch_ms;
  std::vector<double> verify_ms;
  std::vector<double> update_ms;
  std::vector<double> ping_ms;
  std::vector<double> fetch_bytes;
  double loop_seconds = 0.0;
  uint64_t completed = 0;
  double shed_frac = 0.0;
  double daemon_rss_mb = 0.0;
  double stars_frac = 0.0;
  size_t unsatisfied = 0;
  size_t components = 0;  // of the served base
};

/// Launches diva_serverd on the serve inputs in `dir`, runs the two
/// closed-loop clients for `seconds`, then checks the stats invariant,
/// the audit flags and every fetched CSV. `pings` > 0 adds a ping probe.
void RunServeSession(const std::string& dir, uint64_t seed, double seconds,
                     size_t pings, RunResult* result, ServeFigures* figures);

/// Median in-process RunDiva milliseconds of the served base (the
/// pipeline part of an anonymize request).
double PipelineMillis(const std::string& dir, size_t reps, RunResult* result);

/// Per-layer figures collected over the traced operations of one run.
struct LayerSplit {
  /// Self seconds per span name, one entry per operation it ran in.
  std::map<std::string, std::vector<double>> self_s;
  std::vector<double> unattributed;  // root self / root duration
  std::vector<double> traced_publish_s;
  std::vector<double> untraced_publish_s;
  std::vector<double> shards_reused_frac;
  std::vector<diva::DivaReport> reports;  // untraced publishes
  LayerCounts counts;
  size_t unsatisfied = 0;  // most constraints any output violated

  /// Folds operation `op` of `spans`, whose root span is `root`.
  void AddOperation(const SpanRecorder& spans, uint64_t op, const char* root);
};

/// Emits every per-layer metric: the layer split, the report
/// cross-check, and the serve layer from `serve` / `pipeline_ms`.
void EmitLayerMetrics(const LayerSplit& split, const ServeFigures& serve,
                      double pipeline_ms, RunResult* result);

}  // namespace diva_bench

#endif  // DIVA_BENCH_RUNS_H_
