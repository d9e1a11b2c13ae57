#ifndef DIVA_CORE_CLUSTERINGS_H_
#define DIVA_CORE_CLUSTERINGS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "anon/cluster.h"
#include "common/result.h"
#include "constraint/diversity_constraint.h"
#include "relation/relation.h"

namespace diva {

/// One candidate clustering for a constraint sigma: clusters drawn from
/// I_sigma whose suppression preserves exactly `preserved` occurrences of
/// the target value (Definition 3.2: S ⊩ sigma).
struct CandidateClustering {
  Clustering clusters;
  /// Occurrences of sigma's target preserved by these clusters
  /// (= total rows, since every cluster is target-homogeneous).
  size_t preserved = 0;
};

/// Knobs bounding the Clusterings(sigma, R) enumeration (paper §3.3 keeps
/// the candidate count polynomial in |R|; DIVA-Basic's larger unordered
/// pool is what makes its search blow up in Fig 4a).
struct ClusteringEnumOptions {
  /// Hard cap on candidates per constraint.
  size_t max_clusterings = 24;

  /// Deterministic candidates: sliding windows over I_sigma sorted by QI
  /// similarity (at most this many windows per preserved-count value).
  size_t max_window_candidates = 8;

  /// Additional seeded random subsets per preserved-count value.
  size_t random_subsets = 4;

  /// Minimal-suppression-first ordering. false = shuffled (DIVA-Basic).
  bool ordered = true;

  uint64_t seed = 42;
};

/// Sorts target rows by their QI projection (column by column, row id as
/// the final tie-break). The order is a strict total order that does not
/// depend on which rows are present, so filtering a presorted list down
/// to a subset yields exactly the order this function would produce for
/// that subset — the property the coloring engine relies on to sort a
/// search context's targeted rows once and filter every constraint's
/// order, and each node's free targets, out of that list. When every QI
/// column's largest code + 1 fits, the columns pack into one 64-bit key
/// (first column in the top bits) and rows sort by (key, row); wider
/// codes sort with the column-by-column comparator.
std::vector<RowId> SortByQiSimilarity(const Relation& relation,
                                      const std::vector<RowId>& targets);

/// The entries of `order` at `positions` (distinct indices into it), in
/// `order`'s order. Sorting m positions costs ~m·log2(m) steps and
/// marking them and scanning `order` costs ~|order|, so it marks when
/// m·log2(m) exceeds |order| and sorts otherwise; both give one result.
std::vector<RowId> SubsetInOrder(std::span<const RowId> order,
                                 std::vector<uint32_t> positions);

/// Enumerates candidate clusterings satisfying `constraint` over
/// `relation` with minimum cluster size `k` (the Clusterings routine of
/// Algorithm 4). `targets` must be sigma's target tuples I_sigma in
/// `relation` (sorted ascending). Returns an empty vector when the
/// constraint has no satisfying clustering (e.g., lambda_l > |I_sigma| or
/// lambda_r < k with lambda_l > 0).
std::vector<CandidateClustering> EnumerateClusterings(
    const Relation& relation, const DiversityConstraint& constraint,
    const std::vector<RowId>& targets, size_t k,
    const ClusteringEnumOptions& options);

/// State-dependent variant used during coloring (the paper updates the
/// candidate clusterings of neighbors as nodes are colored): enumerates
/// clusterings over the still-free target rows `free_targets` that
/// preserve between `min_preserve` (>= 1; the constraint's remaining
/// lower-bound deficit) and `max_preserve` (its remaining upper-bound
/// headroom) occurrences. Every emitted cluster has >= k rows.
std::vector<CandidateClustering> EnumerateClusteringsWithBounds(
    const Relation& relation, const std::vector<RowId>& free_targets,
    size_t k, size_t min_preserve, size_t max_preserve,
    const ClusteringEnumOptions& options);

/// O(1) structural test for "the bounded enumeration can emit nothing":
/// true iff no preserved-count m with max(k, max(1, min_preserve)) <= m
/// <= min(max_preserve, free_targets) exists (or k == 0 / no free
/// targets). Shared by both Enumerate functions, and used by the
/// coloring engine to skip enumeration (and the candidate memo) for
/// structurally dead nodes without spending a step.
bool EnumerationIsTriviallyEmpty(size_t free_targets, size_t k,
                                 size_t min_preserve, size_t max_preserve);

/// As EnumerateClusteringsWithBounds, but `sorted_free_targets` must
/// already be in SortByQiSimilarity order. Skips the per-call
/// stable_sort — the coloring engine computes each constraint's full
/// target order once at construction and filters it by the claimed-row
/// bitset, so enumeration never re-sorts.
std::vector<CandidateClustering> EnumerateClusteringsQiSorted(
    const Relation& relation, const std::vector<RowId>& sorted_free_targets,
    size_t k, size_t min_preserve, size_t max_preserve,
    const ClusteringEnumOptions& options);

}  // namespace diva

#endif  // DIVA_CORE_CLUSTERINGS_H_
