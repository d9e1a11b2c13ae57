#ifndef DIVA_CORE_SHARD_H_
#define DIVA_CORE_SHARD_H_

/// Component sharding of the DIVA pipeline.
///
/// The conflict graph (edge iff I_si ∩ I_sj != ∅) decomposes into
/// connected components that are fully independent: a cluster chosen for
/// a component-c constraint is a subset of that component's target rows,
/// so it can never contribute occurrences to — or claim rows from — a
/// constraint in another component. Coloring therefore runs per
/// component over a sub-relation of the component's rows
/// (Relation::SelectRows), and the merged result is a valid coloring of
/// the whole instance.
///
/// Determinism contract: every deterministic run colors through its
/// plan, whatever its shard count, and the plan — not the execution
/// mode — fixes every search decision. With two or more shards, each
/// colors its sub-relation with its own deterministic RNG stream (a
/// splitmix of the run seed and the shard index); a lone shard holds
/// every constraint and keeps the run's seeds, so it searches exactly as
/// one search over the whole relation would. Every shard gets the full
/// step budget, and the shard outcomes are merged in component-index
/// order. The DivaOptions::shard flag and the thread width only set how
/// many TaskGroup workers run those identical per-shard computations
/// (none at width 1: every item runs inline, in shard order), so
/// CSV/report/audit bytes are identical with sharding on or off and at
/// every thread width (tests/shard_test.cc asserts this on the fuzz
/// corpus). With fewer than two shards, the baseline phase pools every
/// uncovered row into one call.

#include <cstdint>
#include <vector>

#include "common/counters.h"
#include "common/result.h"
#include "core/coloring.h"
#include "core/constraint_graph.h"
#include "relation/columnar.h"
#include "relation/relation.h"

namespace diva {

/// Disjoint-set forest over constraint indices (union by rank, path
/// halving). Deterministic: the final partition depends only on the
/// union sequence's connectivity, never on its order.
class UnionFind {
 public:
  explicit UnionFind(size_t n);

  size_t Find(size_t x);
  /// Merges the sets of a and b; no-op when already joined.
  void Union(size_t a, size_t b);
  size_t NumSets() const { return sets_; }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> rank_;
  size_t sets_;
};

/// One connected component of the conflict graph.
struct Shard {
  /// Global constraint indices, ascending.
  std::vector<size_t> constraints;
  /// Union of the member constraints' target rows, ascending global ids.
  std::vector<RowId> rows;
};

/// The partition of an instance: one shard per conflict-graph component
/// (ordered by smallest member constraint index — the component index),
/// plus the residual rows no constraint targets. Residual rows need no
/// coloring; they flow to the baseline phase untouched.
struct ShardPlan {
  std::vector<Shard> shards;
  size_t residual_rows = 0;

  /// Largest shard row count (0 when there are no shards).
  size_t MaxShardRows() const;

  /// Whether the baseline phase clusters each shard's uncovered rows on
  /// their own (>= 2 shards) or pools every remaining row into one call.
  /// The coloring runs through the plan either way.
  bool Effective() const { return shards.size() >= 2; }
};

/// Computes the component partition from the already-built conflict
/// graph. Pure function of (graph, num_rows): identical at every thread
/// width and in both execution modes.
ShardPlan ComputeShardPlan(const ConstraintGraph& graph, size_t num_rows);

/// A reusable record of one shard's coloring: the outcome in *local*
/// coordinates (cluster rows are positions into the shard's ascending
/// row list, captured before the global remap) plus the deterministic
/// counter updates buffered while the shard ran. An incremental run
/// adopts the record for a clean shard by remapping the local clusters
/// through the new shard's row list and replaying the counter buffer in
/// shard-index order — every search decision and every deterministic
/// counter op is a pure function of the shard's local sub-instance, so
/// adoption is byte-identical to re-running the search.
struct ShardColoringRecord {
  ColoringOutcome outcome;
  counters::Buffer telemetry;
};

/// Runs the coloring search per shard and merges the outcomes in
/// component-index order. `store` must view the full relation; each
/// shard colors a gathered sub-relation of its rows against its
/// remapped sub-graph. `base_options` carries the
/// run's tuned coloring knobs; with two or more shards, per-shard seeds
/// are derived from them (ShardSeed), and a lone shard keeps them.
/// Shards run as TaskGroup items on min(`workers`, shards) workers (none
/// when `workers` <= 1); per-shard counter buffers commit in shard order
/// and spans stay on the thread that ran the shard. Fails only via the
/// shard.run / shard.merge failpoints — a faulted shard discards every
/// shard's buffered counters and surfaces a clean Status, never a
/// partially merged coloring.
///
/// `adopt` (optional, per-shard, nullptr entries allowed) replaces a
/// shard's live search with a prior ShardColoringRecord: the recorded
/// local outcome is remapped through the shard's current rows and its
/// telemetry replayed at the shard's merge slot. Callers must only
/// adopt records captured from an identical local sub-instance (same
/// member constraints, same row contents, same options/seed stream).
/// `capture` (optional) receives one record per shard, adopted records
/// copied through verbatim so snapshots chain across deltas.
[[nodiscard]] Result<ColoringOutcome> RunShardedColoring(
    const ColumnStore& store, const ConstraintSet& constraints,
    const ConstraintGraph& graph, const ShardPlan& plan,
    const ColoringOptions& base_options, size_t workers,
    const std::vector<const ShardColoringRecord*>* adopt = nullptr,
    std::vector<ShardColoringRecord>* capture = nullptr);

/// The per-shard seed stream: a splitmix64 mix of the run seed and the
/// shard index, so shards draw from decorrelated deterministic streams.
/// Exposed for tests.
uint64_t ShardSeed(uint64_t seed, size_t shard_index);

}  // namespace diva

#endif  // DIVA_CORE_SHARD_H_
