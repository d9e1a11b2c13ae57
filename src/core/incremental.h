#ifndef DIVA_CORE_INCREMENTAL_H_
#define DIVA_CORE_INCREMENTAL_H_

/// Incremental re-anonymization.
///
/// A row delta can only perturb the conflict-graph components whose
/// I_sigma target sets it touches: a component's coloring and baseline
/// clustering are pure functions of its local sub-instance (member
/// constraints, row contents in row-list order, and the positionally
/// derived per-shard seed stream), and one shard task computes both
/// into one ShardRecord (core/shard.h). ApplyDelta therefore carries the
/// snapshot's conflict graph over to the post-delta relation (matching
/// only the inserted rows afresh), compares each shard of the new plan
/// with the prior plan's shard at the same index row by row, and re-runs
/// the pipeline adopting the prior record for every *clean* component —
/// producing output, counters, and audit byte-identical to a
/// cold run on the post-delta relation at every thread width, in time
/// proportional to the dirty fraction plus the cheap full-relation
/// passes (suppress, integrate with batched counting, audit).
///
/// Reuse invariants (all must hold, else the shard is re-colored live):
///  - same DivaOptions fingerprint (k, strategy, seed, budgets,
///    enumeration, baseline + anonymizer knobs, privacy layers) and no
///    generalization context;
///  - the post-delta relation interned no new value: its per-attribute
///    dictionary sizes equal the snapshot input's, which never grow
///    (Relation copies a shared dictionary before interning). Mondrian's
///    Spread scans the global dictionary domain, so a new value dirties
///    every shard;
///  - same member-constraint index list at the same component index
///    (positional match keeps the splitmix seed stream aligned);
///  - the same number of rows, equal cell for cell in row-list order to
///    the snapshot input's rows (with no new value interned, the
///    post-delta relation still shares the input's dictionaries, so equal
///    codes are equal values; local target positions and adjacency
///    follow from content).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "constraint/diversity_constraint.h"
#include "core/constraint_graph.h"
#include "core/diva.h"
#include "core/shard.h"
#include "relation/relation.h"

namespace diva {

/// A batch of row changes against a snapshot's input relation: `deleted`
/// are row ids of that relation (any order, duplicates tolerated),
/// `inserted` rows are appended in order after the survivors, encoded
/// through the input's dictionaries ("*" cells stay suppressed; a new
/// value lands in a copy, never in the input's dictionary).
struct DeltaBatch {
  std::vector<RowId> deleted;
  std::vector<std::vector<std::string>> inserted;

  bool Empty() const { return deleted.empty() && inserted.empty(); }

  /// Rows the batch deletes: the distinct ids in `deleted` (a row listed
  /// twice is deleted once).
  size_t RowsDeleted() const;
};

/// Everything an incremental run needs to reuse a prior run: the input
/// relation (pre-anonymization), its conflict graph and shard plan, and
/// the per-shard records. Snapshots chain: ApplyDelta emits a fresh
/// snapshot for the post-delta relation that shares each clean shard's
/// record with the prior snapshot (the same object, not a copy).
struct PipelineSnapshot {
  bool valid = false;

  /// Null until FinalizeSnapshot runs. Shared, so a holder of the
  /// relation alone (the server's published base) does not keep the
  /// graph, plan and records alive.
  std::shared_ptr<const Relation> input;
  ConstraintSet constraints;
  /// The input's conflict graph, which the next delta carries over.
  ConstraintGraph graph;
  ShardPlan plan;

  /// Fingerprint of every DivaOptions knob that steers the search.
  uint64_t options_fingerprint = 0;

  /// One entry per shard, never null in a valid snapshot. The pooled
  /// baseline call (residual rows plus every shard left with fewer than
  /// k uncovered rows) mixes shards, so it is never recorded.
  std::vector<std::shared_ptr<const ShardRecord>> records;
};

/// Caller-supplied precomputations and reuse directives for one pipeline
/// run. Everything is optional; an empty hooks struct is a cold run.
struct PipelineHooks {
  /// Precomputed conflict graph + shard plan for the input relation
  /// (both or neither): the pipeline skips BuildConstraintGraph /
  /// ComputeShardPlan, which an incremental caller has already run on
  /// the post-delta relation. The capture stores only a graph and plan
  /// the pipeline built itself; a caller passing its own moves them
  /// into a valid capture.
  const ConstraintGraph* graph = nullptr;
  const ShardPlan* plan = nullptr;

  /// Per-shard adoption (empty, or one entry per shard, null = run
  /// live). Records must come from an identical local sub-instance; an
  /// adopted record passes into the capture as the same object.
  std::vector<std::shared_ptr<const ShardRecord>> adopt;

  /// When non-null, the pipeline fills the per-shard records and
  /// the `valid` eligibility flag; the caller finishes the snapshot with
  /// FinalizeSnapshot.
  PipelineSnapshot* capture = nullptr;
};

/// The five-phase pipeline behind RunDiva, with incremental hooks.
/// RunDiva(relation, constraints, options) == RunDivaPipeline(...) with
/// empty hooks; adoption and capture never change output bytes.
[[nodiscard]] Result<DivaResult> RunDivaPipeline(const Relation& relation,
                                                 const ConstraintSet& constraints,
                                                 const DivaOptions& options,
                                                 const PipelineHooks& hooks);

/// Completes a pipeline-captured snapshot, whose plan and reuse records
/// the pipeline already stored. Takes the input relation (an incremental
/// caller moves its post-delta relation in), copies the constraints, and
/// records the options fingerprint. No-op when the pipeline marked the
/// capture invalid.
void FinalizeSnapshot(PipelineSnapshot* snapshot, Relation input,
                      const ConstraintSet& constraints,
                      const DivaOptions& options);

/// Applies the delta to `input` alone: survivors keep their relative
/// order (ids compact downward), inserted rows append after them,
/// sharing the input's schema and dictionaries. Fails on out-of-range
/// deletes or malformed inserted rows.
[[nodiscard]] Result<Relation> ApplyDeltaToRelation(const Relation& input,
                                                    const DeltaBatch& delta);

/// The conflict graph of `post`, carried over from `prior`, the graph
/// of an input relation under the same `constraints`: post's first
/// `survivors` rows copy the input's rows other than `deleted`
/// (ascending, distinct), in order, and its remaining rows are new.
/// Equal to BuildConstraintGraph(post, constraints), but it matches only
/// the new rows against the constraints.
ConstraintGraph CarryConstraintGraph(const ConstraintGraph& prior,
                                     const Relation& post,
                                     const ConstraintSet& constraints,
                                     const std::vector<RowId>& deleted,
                                     size_t survivors);

/// Incremental re-anonymization: applies `delta` to the snapshot's
/// input, carries over the conflict graph, plans the post-delta
/// relation, re-colors only the dirty components (clean ones adopt the
/// snapshot's records), and runs the downstream phases. The
/// result — relation bytes, report counters, audit — is byte-identical
/// to RunDiva on the post-delta relation with the same options, at
/// every thread width. The returned DivaResult carries a fresh snapshot
/// for the post-delta relation, so deltas chain.
///
/// `options` must describe the same run configuration the snapshot was
/// captured under (fingerprint-checked); on mismatch every component is
/// treated as dirty — still correct, just a cold-cost run.
/// Faults at the delta.apply / delta.recolor / delta.merge sites (and
/// any pipeline-internal site) surface a clean Status; no partially
/// merged output is ever returned.
[[nodiscard]] Result<DivaResult> ApplyDelta(const PipelineSnapshot& prior,
                                            const DeltaBatch& delta,
                                            const DivaOptions& options);

/// Parses the anonymize_cli delta file format: one directive per line,
/// `- <row_id>` deletes a row of the snapshot relation, `+ <csv row>`
/// inserts a row (comma-separated, no quoting, "*" = suppressed cell).
/// Blank lines and `#` comments are ignored. A row id that is negative
/// or does not fit a RowId is rejected, naming its line.
[[nodiscard]] Result<DeltaBatch> ParseDeltaFile(const std::string& text);

}  // namespace diva

#endif  // DIVA_CORE_INCREMENTAL_H_
