#ifndef DIVA_CORE_DIVA_H_
#define DIVA_CORE_DIVA_H_

#include <memory>
#include <vector>

#include "anon/anonymizer.h"
#include "hierarchy/generalize.h"
#include "common/counters.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "common/result.h"
#include "constraint/diversity_constraint.h"
#include "core/clusterings.h"
#include "core/coloring.h"
#include "relation/relation.h"

namespace diva {

/// Off-the-shelf k-anonymizer used by DIVA's Anonymize phase for the
/// tuples outside the diverse clustering.
enum class BaselineAlgorithm {
  kKMember,  // the paper's choice [6]
  kOka,
  kMondrian,
};

const char* BaselineAlgorithmToString(BaselineAlgorithm baseline);

struct DivaOptions {
  /// Minimum QI-group size.
  size_t k = 10;

  SelectionStrategy strategy = SelectionStrategy::kMaxFanOut;

  uint64_t seed = 42;

  /// Step budget of the coloring search; exhaustion degrades to the best
  /// partial coloring (or an error in strict mode).
  uint64_t coloring_budget = 1000000;

  /// Candidate-clustering enumeration knobs. When `auto_tune_enumeration`
  /// is true (default) the ordered flag, pool size and seed are derived
  /// from `strategy`/`seed`: Basic explores a larger shuffled pool
  /// (the paper's exponential-in-|Sigma| configuration), MinChoice and
  /// MaxFanOut a compact ordered one.
  ClusteringEnumOptions enumeration;
  bool auto_tune_enumeration = true;

  /// When true, DIVA fails (Infeasible) if the coloring cannot satisfy
  /// every constraint — Algorithm 1's "relation does not exist". When
  /// false (default), it publishes the best-effort relation and reports
  /// the unsatisfied constraints.
  bool strict = false;

  BaselineAlgorithm baseline = BaselineAlgorithm::kKMember;
  AnonymizerOptions anonymizer;

  /// Optional distinct l-diversity on top of k-anonymity (the paper's
  /// first listed privacy extension). 0 or 1 = off. When set, QI-groups
  /// of the output are merged after integration until each carries at
  /// least this many distinct sensitive projections; merging adds
  /// suppression and can sacrifice diversity lower bounds (re-verified
  /// and reported in DivaReport::unsatisfied).
  size_t l_diversity = 0;

  /// Optional generalization hierarchies: when set, clusters are recoded
  /// to lowest-common-ancestor labels instead of ★ wherever a taxonomy
  /// exists (attributes without one still suppress). Counting semantics
  /// are unchanged — a generalized label never matches a constraint's
  /// target value — so every DIVA guarantee carries over.
  std::shared_ptr<const GeneralizationContext> generalization;

  /// Portfolio parallelism for the coloring search (the paper's
  /// future-work direction): number of independently seeded searches run
  /// on worker threads, first complete coloring wins. 0 or 1 = single
  /// search. Applies only to plans with fewer than 2 shards (a connected
  /// instance); its output may vary run to run.
  size_t portfolio_threads = 0;

  /// Data-parallel execution width for the pipeline's hot loops
  /// (candidate enumeration, suppression, baseline clustering, metrics,
  /// auditing). Defaults to the DIVA_THREADS environment knob; 0 = one
  /// thread per hardware core, 1 = exact sequential execution through
  /// the same code path. Results are bit-identical for every width (see
  /// common/parallel.h). RunDiva applies this via SetParallelThreads,
  /// so it configures the process-global pool.
  size_t threads = EnvThreads();

  /// Component sharding of the coloring phase (core/shard.h). The
  /// conflict graph's connected components are independent subproblems,
  /// and the shard *plan* fixes every search decision (per-shard seed
  /// streams, per-shard sub-relations). This flag only chooses the
  /// execution width: true runs shards as TaskGroup items on up to
  /// `threads` workers, false on none (inline, in shard order). Like
  /// `threads`, it never changes output bytes — tests/shard_test.cc pins
  /// sharded == unsharded on the fuzz corpus.
  bool shard = true;

  /// Optional t-closeness on top of k-anonymity (the paper's second
  /// listed privacy extension). 1.0 = off (every relation is 1-close).
  /// When < 1, output QI-groups are merged until each sensitive
  /// distribution is within this distance of the global one.
  double t_closeness = 1.0;

  /// Self-audit: after publishing, independently re-verify the output
  /// contract (QI-group sizes >= k, constraint bounds, suppression-only
  /// containment, star accounting) with verify/auditor.h. Constraints the
  /// report already lists as unsatisfied are waived; any other breach is
  /// an internal error (the pipeline produced a relation that violates
  /// its own guarantees) and RunDiva fails with kInternal.
  bool audit = false;

  /// Wall-clock budget for the whole run in milliseconds (0 = none).
  /// When the budget expires mid-run, RunDiva degrades to *anytime*
  /// behaviour instead of failing: the coloring keeps its best partial
  /// assignment (the budget-exhaustion path), an interrupted
  /// k-member/OKA baseline falls back to the single-pass Mondrian, the
  /// Integrate repair is skipped (its violations surface in
  /// DivaReport::unsatisfied), and the privacy merge loops stop where
  /// they are. The published relation is still k-anonymous and
  /// suppression-only — the self-audit, which a deadline never skips,
  /// re-proves that — and the report flags what was cut short
  /// (deadline_exceeded and the per-phase degradation flags). Under
  /// `strict`, expiry is an error (kDeadlineExceeded).
  int64_t deadline_ms = 0;

  /// Capture a reusable PipelineSnapshot (core/incremental.h) alongside
  /// the result: the input relation, its shard plan, and per-shard
  /// coloring/baseline reuse records. ApplyDelta consumes the snapshot to
  /// re-anonymize a churned relation re-coloring only the dirty
  /// components. Capture never changes output bytes; it costs one
  /// relation copy, and is skipped (snapshot left null) when the run is
  /// not reusable — degraded by a deadline, generalization-recoded, or
  /// colored by the portfolio (`portfolio_threads` > 1 on a connected
  /// instance).
  bool incremental = false;

  /// Optional external cancellation signal, composed with `deadline_ms`:
  /// the run degrades (or errors, under `strict`) when either trips.
  /// This is how a caller that owns the run's lifetime — the serve
  /// layer's request token, a CLI's SIGINT handler — interrupts a pipeline
  /// mid-flight. Tripping it yields the same anytime-degradation path as
  /// a deadline: the published relation stays k-anonymous,
  /// suppression-only and audited. A default (null) token changes
  /// nothing.
  CancellationToken cancel;
};

/// Everything DIVA measured about one run.
struct DivaReport {
  /// Did the coloring satisfy all constraints?
  bool clustering_complete = false;
  bool budget_exhausted = false;
  size_t colored_constraints = 0;
  size_t total_constraints = 0;
  uint64_t coloring_steps = 0;
  uint64_t backtracks = 0;

  /// Conflict-graph components the coloring decomposed into (the shard
  /// plan of core/shard.h). 0 when there were no constraints; 1 when
  /// they all interact. Identical with sharding on or off — the plan is
  /// a pure function of the instance.
  size_t shards = 0;
  /// Rows no constraint targets (the residual shard): they skip the
  /// coloring entirely and flow to the baseline phase.
  size_t residual_rows = 0;

  /// Tuples covered by the diverse clustering S_Sigma.
  size_t sigma_rows = 0;
  /// Cells suppressed by the Integrate repair.
  size_t repair_cells = 0;
  /// Constraints violated by the final output (empty on full success).
  std::vector<size_t> unsatisfied;

  /// True when DivaOptions::audit ran and passed (a failed audit turns
  /// the whole run into a kInternal error instead).
  bool audited = false;

  /// The wall budget (DivaOptions::deadline_ms) expired during the run
  /// and the output is the anytime best effort. The degradation flags
  /// below say which phases were cut short.
  bool deadline_exceeded = false;
  /// The configured baseline was interrupted by the deadline and the
  /// remainder was anonymized with single-pass Mondrian instead.
  bool baseline_degraded = false;
  /// The Integrate repair did not run; its violations appear in
  /// `unsatisfied` (and are waived for the audit).
  bool integrate_skipped = false;
  /// The l-diversity / t-closeness merge loop stopped before reaching
  /// its target (the output may not meet the requested l or t).
  bool privacy_truncated = false;

  /// Per-run delta of the process-wide counter registry
  /// (common/counters.h), sorted by name: coloring.steps,
  /// suppress.stars, pool.chunks, deadline.polls, ... Deterministic-
  /// scoped entries are identical at every thread width; execution-
  /// scoped ones describe scheduling. Serialized into the report JSON.
  std::vector<counters::Sample> counters;

  /// Per-phase wall seconds from one monotonic clock (common/timer.h);
  /// filled even when a deadline cut the phase short. With two or more
  /// shards each shard's baseline call runs in the task that colors the
  /// shard, so its time counts in clustering_seconds; anonymize_seconds
  /// holds the pooled call, the Mondrian fallback and the marks.
  double clustering_seconds = 0.0;
  double anonymize_seconds = 0.0;
  double integrate_seconds = 0.0;
  double audit_seconds = 0.0;
  double total_seconds = 0.0;
};

struct PipelineSnapshot;

struct DivaResult {
  Relation relation;
  DivaReport report;

  /// Reuse state for incremental re-anonymization, captured when
  /// DivaOptions::incremental was set and the run was reusable (see
  /// core/incremental.h); null otherwise.
  std::shared_ptr<const PipelineSnapshot> snapshot;
};

/// Runs DIVA (Algorithm 1): diverse clustering by graph coloring,
/// suppression, baseline anonymization of the remainder, and integration.
/// The output relation is k-anonymous and — whenever the search succeeds —
/// satisfies every constraint; row ids match the input.
[[nodiscard]] Result<DivaResult> RunDiva(const Relation& relation,
                           const ConstraintSet& constraints,
                           const DivaOptions& options);

/// Instantiates the baseline anonymizer configured in `options`.
std::unique_ptr<Anonymizer> MakeBaselineAnonymizer(const DivaOptions& options);

}  // namespace diva

#endif  // DIVA_CORE_DIVA_H_
