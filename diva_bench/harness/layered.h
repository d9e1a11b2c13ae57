#ifndef DIVA_BENCH_LAYERED_H_
#define DIVA_BENCH_LAYERED_H_

// The traced publish: RunDiva's phase sequence re-composed from each
// layer's public function, with one benchmark span around every call, so
// the per-layer split is measured from the benchmark's own files. It
// covers the configuration the workloads use (no deadline, cancel,
// generalization, privacy layer or portfolio) and must publish the same
// bytes as RunDiva — every traced publish is hash-checked against an
// untraced one.

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "constraint/diversity_constraint.h"
#include "core/diva.h"
#include "relation/relation.h"
#include "spans.h"

namespace diva_bench {

/// What the layers reported along the way.
struct LayerCounts {
  size_t shards = 0;
  size_t max_shard_rows = 0;
  size_t baseline_rows = 0;
  size_t repair_cells = 0;
  uint64_t coloring_steps = 0;
  uint64_t backtracks = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_lookups = 0;
  uint64_t nogood_hits = 0;
  uint64_t nogood_lookups = 0;
  uint64_t added_stars = 0;
  std::vector<size_t> unsatisfied;
};

/// Span names, one per layer call (self times are reported per name).
inline constexpr const char* kLayerSpans[] = {
    "relation.csv_read", "relation.csv_write", "relation.copy",
    "relation.transpose", "core.graph_build",  "core.shard_plan",
    "core.coloring",      "core.integrate",    "core.finalize",
    "core.delta_parse",   "core.delta_apply",  "anon.suppress",
    "anon.baseline",      "verify.audit",
};

[[nodiscard]] diva::Result<diva::Relation> RunLayered(
    const diva::Relation& relation, const diva::ConstraintSet& constraints,
    const diva::DivaOptions& options, SpanRecorder* spans,
    LayerCounts* counts);

/// Order-sensitive FNV-1a over every cell's value text, so relations
/// with independent dictionaries (a CSV read back) hash comparably.
uint64_t HashRelation(const diva::Relation& relation);

/// Value of counter `name` in `after` minus `before` (0 when absent).
uint64_t CounterDelta(const std::vector<diva::counters::Sample>& before,
                      const std::vector<diva::counters::Sample>& after,
                      const char* name);

/// Value of counter `name` in a report's counter list (0 when absent).
uint64_t ReportCounter(const diva::DivaReport& report, const char* name);

}  // namespace diva_bench

#endif  // DIVA_BENCH_LAYERED_H_
