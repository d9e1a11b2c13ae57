// The per-layer metrics of a traced run, shared by every workload.

#include <string>

#include "runs.h"

namespace diva_bench {

namespace {

double Ratio(uint64_t hits, uint64_t lookups) {
  return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0;
}

/// Median over `reports` of one field.
template <typename Fn>
double ReportMedian(const std::vector<diva::DivaReport>& reports, Fn field) {
  std::vector<double> values;
  for (const diva::DivaReport& report : reports) values.push_back(field(report));
  return Median(values);
}

}  // namespace

void LayerSplit::AddOperation(const SpanRecorder& spans, uint64_t op,
                              const char* root) {
  const std::map<std::string, double> self = spans.SelfSeconds(op);
  for (const auto& [name, seconds] : self) {
    if (name != root) self_s[name].push_back(seconds);
  }
  if (std::string(root) == "publish") {
    const double total = spans.OperationSeconds(op);
    const auto it = self.find(root);
    if (total > 0 && it != self.end()) unattributed.push_back(it->second / total);
  }
}

void EmitLayerMetrics(const LayerSplit& split, const ServeFigures& serve,
                      double pipeline_ms, RunResult* result) {
  for (const char* span : kLayerSpans) {
    const auto it = split.self_s.find(span);
    result->Metric(std::string(span) + "_s",
                   it == split.self_s.end() ? 0.0 : Median(it->second), "s");
  }
  const LayerCounts& counts = split.counts;
  result->Metric("core.shards", static_cast<double>(counts.shards), "count");
  result->Metric("core.max_shard_rows", static_cast<double>(counts.max_shard_rows),
                 "rows");
  result->Metric("core.coloring_steps", static_cast<double>(counts.coloring_steps),
                 "count");
  result->Metric("core.backtracks", static_cast<double>(counts.backtracks), "count");
  result->Metric("core.memo_hit_ratio", Ratio(counts.memo_hits, counts.memo_lookups),
                 "ratio");
  result->Metric("core.nogood_hit_ratio",
                 Ratio(counts.nogood_hits, counts.nogood_lookups), "ratio");
  result->Metric("core.repair_cells", static_cast<double>(counts.repair_cells),
                 "count");
  result->Metric("core.shards_reused_frac", Median(split.shards_reused_frac),
                 "ratio");
  result->Metric("anon.baseline_rows", static_cast<double>(counts.baseline_rows),
                 "rows");

  const double anonymize_p50 = Median(serve.anonymize_ms);
  result->Metric("serve.ping_p50_ms", Median(serve.ping_ms), "ms");
  result->Metric("serve.pipeline_p50_ms", pipeline_ms, "ms");
  result->Metric("serve.overhead_p50_ms", anonymize_p50 - pipeline_ms, "ms");
  result->Metric("serve.anonymize_p50_ms", anonymize_p50, "ms");
  result->Metric("serve.anonymize_p90_ms", Percentile(serve.anonymize_ms, 90),
                 "ms");
  result->Metric("serve.fetch_p50_ms", Median(serve.fetch_ms), "ms");
  result->Metric("serve.update_p50_ms", Median(serve.update_ms), "ms");
  result->Metric("serve.rps",
                 serve.loop_seconds > 0
                     ? static_cast<double>(serve.completed) / serve.loop_seconds
                     : 0.0,
                 "1/s");
  result->Metric("serve.shed_frac", serve.shed_frac, "ratio");
  result->Metric("serve.fetch_bytes", Median(serve.fetch_bytes), "bytes");

  const auto counter = [&](const char* name) {
    return ReportMedian(split.reports, [&](const diva::DivaReport& report) {
      return static_cast<double>(ReportCounter(report, name));
    });
  };
  result->Metric("common.pool_chunks", counter("pool.chunks"), "count");
  result->Metric("common.pool_chunks_stolen", counter("pool.chunks_stolen"),
                 "count");
  result->Metric("common.taskgroup_submitted", counter("taskgroup.submitted"),
                 "count");

  const double untraced = Median(split.untraced_publish_s);
  result->Metric("trace_overhead_frac",
                 untraced > 0 ? Median(split.traced_publish_s) / untraced - 1.0
                              : 0.0,
                 "ratio");
  result->Metric("unattributed_frac", Median(split.unattributed), "ratio");
  result->Metric("report.clustering_s",
                 ReportMedian(split.reports,
                              [](const diva::DivaReport& r) {
                                return r.clustering_seconds;
                              }),
                 "s");
  result->Metric("report.anonymize_s",
                 ReportMedian(split.reports,
                              [](const diva::DivaReport& r) {
                                return r.anonymize_seconds;
                              }),
                 "s");
  result->Metric("report.integrate_s",
                 ReportMedian(split.reports,
                              [](const diva::DivaReport& r) {
                                return r.integrate_seconds;
                              }),
                 "s");
  result->Metric("report.audit_s",
                 ReportMedian(split.reports,
                              [](const diva::DivaReport& r) {
                                return r.audit_seconds;
                              }),
                 "s");
  result->Metric("check.unsatisfied", static_cast<double>(split.unsatisfied),
                 "count");
  result->Metric("check.failed_frac",
                 result->attempted() > 0
                     ? static_cast<double>(result->failed()) /
                           static_cast<double>(result->attempted())
                     : 0.0,
                 "ratio");
}

}  // namespace diva_bench
