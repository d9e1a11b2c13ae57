#ifndef DIVA_CORE_COLORING_H_
#define DIVA_CORE_COLORING_H_

#include <cstdint>
#include <vector>

#include "anon/cluster.h"
#include "common/deadline.h"
#include "core/clusterings.h"
#include "core/constraint_graph.h"

namespace diva {

/// Node-selection strategy for the coloring search (Section 3.3).
enum class SelectionStrategy {
  /// Random uncolored node, shuffled candidate order (DIVA-Basic).
  kBasic,
  /// Most restrictive first: fewest currently-consistent clusterings.
  kMinChoice,
  /// Most interacting first: most uncolored neighbors.
  kMaxFanOut,
};

const char* SelectionStrategyToString(SelectionStrategy strategy);

struct ColoringOptions {
  /// Minimum cluster size (the k of k-anonymity).
  size_t k = 10;

  SelectionStrategy strategy = SelectionStrategy::kMaxFanOut;

  uint64_t seed = 42;

  /// Search-step budget (candidate trials); exhaustion returns the best
  /// partial coloring found so far instead of looping forever.
  uint64_t step_budget = 1000000;

  /// Deadline-driven cancellation (the anytime mode of RunDiva): when the
  /// token trips, the search stops at the next step and the best partial
  /// coloring found so far is returned with budget_exhausted set — the
  /// same degradation path as step-budget exhaustion. Default token never
  /// trips.
  CancellationToken deadline;

  /// Memoize per-node candidate lists across backtracking re-visits,
  /// keyed by the claimed-rows fingerprint restricted to the node's
  /// targets plus its remaining deficit/headroom. Enumeration (and the
  /// least-constraining ordering) is a pure function of that key, so the
  /// search explores exactly the same tree with the memo on or off —
  /// disabling it only costs time (coloring_test asserts byte-identical
  /// outcomes both ways). The greedy fallback pass starts from attempt
  /// 0's memo: both derive the same per-node enumeration seeds, so the
  /// entries are interchangeable. Hit/miss/evict totals are exported
  /// through the deterministic counters coloring.memo_{hits,misses,
  /// evictions}.
  bool memo = true;

  /// Memoized candidate lists retained per search engine before the memo
  /// is dropped wholesale (epoch eviction) to bound memory.
  size_t memo_capacity = 2048;

  /// Knobs of the per-node candidate enumeration. Candidates are
  /// regenerated each time a node is tried (or replayed from the memo),
  /// over the target rows still unclaimed by other clusters and for the
  /// constraint's *remaining* deficit (the paper: "we update the
  /// candidate clusterings for their neighbors") — occurrences preserved
  /// by other constraints' clusters count toward a node's lower bound.
  ClusteringEnumOptions enumeration;
};

/// Result of the backtracking coloring (Algorithm 4, plus best-partial
/// tracking for graceful degradation under a step budget).
struct ColoringOutcome {
  /// True iff every node received a consistent clustering.
  bool complete = false;
  bool budget_exhausted = false;

  /// Per node: preserved-occurrence count of the chosen clustering
  /// (possibly 0 when neighbors' clusters already covered the lower
  /// bound), or -1 if uncolored in the best assignment found.
  std::vector<int> assignment;

  /// Union of the distinct chosen clusters (S_Sigma). Clusters shared by
  /// two nodes appear once.
  Clustering chosen_clusters;

  /// Occurrences of each constraint's target preserved by
  /// chosen_clusters.
  std::vector<uint64_t> preserved;

  /// Per chosen cluster, its StarMask (anon/suppress.h). Only
  /// RunShardedColoring fills it, reading each shard's masks off the
  /// shard's gathered rows, and only when the QI projection has at most
  /// kStarMaskColumns columns; empty otherwise.
  std::vector<uint8_t> star_masks;

  uint64_t steps = 0;
  uint64_t backtracks = 0;

  size_t NumColored() const {
    size_t n = 0;
    for (int a : assignment) n += (a >= 0);
    return n;
  }
};

/// Runs the coloring search over (R, Sigma) with the interaction graph
/// `graph` (whose `targets` must be the constraints' target-tuple lists).
/// Up to eight seeded restart attempts run in sequence, then a greedy
/// pass; each stops early after a fixed number of steps (5000, a quarter
/// of that for restart probes) without improving its best coloring.
ColoringOutcome ColorConstraints(const Relation& relation,
                                 const ConstraintSet& constraints,
                                 const ConstraintGraph& graph,
                                 const ColoringOptions& options);

/// Portfolio parallelization of the coloring search — the paper's
/// future-work direction ("a distributed version of the coloring
/// algorithm to improve scalability by satisfying constraints in
/// parallel"). Runs `threads` independently-seeded searches on a
/// TaskGroup; the first complete coloring trips their shared child of
/// options.deadline to stop the rest. When no search completes, the one
/// that colored the most constraints wins (ties by thread index).
/// `threads` <= 1 is plain ColorConstraints.
///
/// Every returned outcome is a valid coloring state; which complete
/// assignment wins under cancellation may vary run to run.
ColoringOutcome ColorConstraintsPortfolio(const Relation& relation,
                                          const ConstraintSet& constraints,
                                          const ConstraintGraph& graph,
                                          const ColoringOptions& options,
                                          size_t threads);

}  // namespace diva

#endif  // DIVA_CORE_COLORING_H_
