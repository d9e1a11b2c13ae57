#include "core/integrate.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "anon/suppress.h"
#include "common/counters.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "constraint/constraint_index.h"

namespace diva {

namespace {

/// First sensitive (non-QI, non-identifier) attribute among the
/// constraint's target attributes, if any.
std::optional<size_t> SensitiveTargetAttribute(
    const Relation& relation, const DiversityConstraint& constraint) {
  for (size_t attr : constraint.attribute_indices()) {
    if (relation.schema().attribute(attr).role == AttributeRole::kSensitive) {
      return attr;
    }
  }
  return std::nullopt;
}

/// First quasi-identifier attribute among the targets (exists whenever
/// SensitiveTargetAttribute is empty, since identifier-attribute targets
/// are legal but pointless; fall back to the first target attribute).
size_t QiTargetAttribute(const Relation& relation,
                         const DiversityConstraint& constraint) {
  for (size_t attr : constraint.attribute_indices()) {
    if (relation.schema().IsQuasiIdentifier(attr)) return attr;
  }
  return constraint.attribute_indices().front();
}

/// Per-constraint occurrence counts computed once up front (one index
/// pass) and decremented exactly under every repair suppression, so each
/// lookup equals the live relation's count without rescanning it.
class MaintainedCounts {
 public:
  MaintainedCounts(const ConstraintIndex& index,
                   const ConstraintSet& constraints, size_t num_attributes)
      : index_(index), counts_(index.CountAll()), by_attr_(num_attributes) {
    for (size_t c = 0; c < constraints.size(); ++c) {
      for (size_t attr : constraints[c].attribute_indices()) {
        by_attr_[attr].push_back(c);
      }
    }
  }

  size_t count(size_t constraint_index) const {
    return counts_[constraint_index];
  }

  /// Suppresses cell (row, attr) in *relation. A cell can only stop
  /// matching (target codes are never kSuppressed), so the count of every
  /// constraint the row matched on `attr` drops by exactly one.
  void Suppress(Relation* relation, RowId row, size_t attr) {
    for (size_t c : by_attr_[attr]) {
      if (index_.Matches(c, row)) --counts_[c];
    }
    relation->Set(row, attr, kSuppressed);
  }

 private:
  const ConstraintIndex& index_;
  std::vector<size_t> counts_;
  std::vector<std::vector<size_t>> by_attr_;
};

}  // namespace

IntegrateStats IntegrateRepair(Relation* relation,
                               const ConstraintSet& constraints,
                               const Clustering& rk_clusters) {
  DIVA_TRACE_SPAN("integrate/repair");
  IntegrateStats stats;
  // Suppression interns no values, so the index stays exact while the
  // repair rewrites cells under it.
  const ConstraintIndex index(*relation, constraints);
  MaintainedCounts counts(index, constraints, relation->NumAttributes());

  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const DiversityConstraint& constraint = constraints[ci];
    size_t count = counts.count(ci);
    if (count <= constraint.upper()) continue;
    size_t excess = count - constraint.upper();
    ++stats.repaired_constraints;

    std::optional<size_t> sensitive_attr =
        SensitiveTargetAttribute(*relation, constraint);
    if (sensitive_attr.has_value()) {
      // Cell-level repair: suppress the sensitive target value in exactly
      // `excess` matching R_k rows. Sensitive cells are not part of the
      // QI projection, so k-anonymity is untouched.
      for (const Cluster& cluster : rk_clusters) {
        for (RowId row : cluster) {
          if (excess == 0) break;
          if (index.Matches(ci, row)) {
            counts.Suppress(relation, row, *sensitive_attr);
            ++stats.suppressed_cells;
            --excess;
          }
        }
        if (excess == 0) break;
      }
      continue;
    }

    // QI-only target: a whole R_k cluster either matches (its rows share
    // all QI values) or not. Suppressing one target attribute across a
    // matching cluster removes |cluster| occurrences at |cluster| stars
    // and keeps the cluster a uniform QI-group of unchanged size.
    size_t repair_attr = QiTargetAttribute(*relation, constraint);
    // Indices into rk_clusters whose (uniform-QI) rows match the
    // constraint. The scan only reads the relation; chunk hit lists
    // concatenated in chunk order equal the sequential scan's order.
    std::vector<size_t> matching = ParallelReduce<std::vector<size_t>>(
        rk_clusters.size(), /*grain=*/0, {},
        [&](size_t begin, size_t end) {
          std::vector<size_t> local;
          for (size_t c = begin; c < end; ++c) {
            const Cluster& cluster = rk_clusters[c];
            if (!cluster.empty() && index.Matches(ci, cluster.front())) {
              local.push_back(c);
            }
          }
          return local;
        },
        [](std::vector<size_t> acc, std::vector<size_t> chunk) {
          acc.insert(acc.end(), chunk.begin(), chunk.end());
          return acc;
        });
    std::sort(matching.begin(), matching.end(), [&](size_t a, size_t b) {
      return rk_clusters[a].size() < rk_clusters[b].size();
    });

    while (excess > 0 && !matching.empty()) {
      // Smallest matching cluster that covers the remaining excess, to
      // minimize overshoot; otherwise the largest available.
      size_t chosen_pos = matching.size();
      for (size_t i = 0; i < matching.size(); ++i) {
        if (rk_clusters[matching[i]].size() >= excess) {
          chosen_pos = i;
          break;
        }
      }
      if (chosen_pos == matching.size()) chosen_pos = matching.size() - 1;
      size_t cluster_index = matching[chosen_pos];
      matching.erase(matching.begin() + static_cast<long>(chosen_pos));

      const Cluster& cluster = rk_clusters[cluster_index];
      for (RowId row : cluster) {
        counts.Suppress(relation, row, repair_attr);
      }
      stats.suppressed_cells += cluster.size();
      excess -= std::min(excess, cluster.size());
    }
  }
  DIVA_COUNTER_ADD("integrate.repaired_constraints",
                   stats.repaired_constraints);
  DIVA_COUNTER_ADD("integrate.suppressed_cells", stats.suppressed_cells);
  return stats;
}

void FoldLeftoverRows(Relation* relation, Clustering* clusters,
                      const std::vector<RowId>& leftover,
                      const ConstraintSet& constraints) {
  // Suppression interns no values, so one index serves every fold. A
  // target value missing from the dictionary matches no row, before or
  // after.
  const ConstraintIndex index(*relation, constraints);
  std::vector<uint8_t> suppressed(relation->NumAttributes(), 0);
  for (RowId row : leftover) {
    const std::vector<size_t> counts = index.CountAll();
    // Rank = (new violations, ★s), compared lexicographically; the first
    // cluster with the least rank wins, and nothing beats (0, 0).
    const std::pair<size_t, size_t> unbeatable{0, 0};
    std::pair<size_t, size_t> best_rank{SIZE_MAX, SIZE_MAX};
    size_t best = 0;
    for (size_t c = 0; c < clusters->size() && best_rank != unbeatable; ++c) {
      Cluster merged = (*clusters)[c];
      merged.push_back(row);
      // SuppressionCost's rule: a QI column is suppressed unless every
      // merged row holds the same non-suppressed value.
      size_t num_suppressed = 0;
      for (size_t col : relation->schema().qi_indices()) {
        const ValueCode value = relation->At(row, col);
        suppressed[col] =
            value == kSuppressed ||
            std::any_of(merged.begin(), merged.end(),
                        [&](RowId r) { return relation->At(r, col) != value; });
        num_suppressed += suppressed[col];
      }
      // Counts only fall, and only for constraints on a suppressed
      // column, by the merged rows that matched them. A constraint that
      // held breaks iff it drops below its lower bound.
      size_t new_violations = 0;
      for (size_t j = 0; j < constraints.size(); ++j) {
        const DiversityConstraint& constraint = constraints[j];
        const std::vector<size_t>& attrs = constraint.attribute_indices();
        if (counts[j] < constraint.lower() || counts[j] > constraint.upper() ||
            std::none_of(attrs.begin(), attrs.end(),
                         [&](size_t attr) { return suppressed[attr] != 0; })) {
          continue;
        }
        const size_t lost =
            std::count_if(merged.begin(), merged.end(),
                          [&](RowId r) { return index.Matches(j, r); });
        if (counts[j] - lost < constraint.lower()) ++new_violations;
      }
      const std::pair<size_t, size_t> rank{new_violations,
                                           num_suppressed * merged.size()};
      if (rank < best_rank) {
        best_rank = rank;
        best = c;
      }
    }
    Cluster& target = (*clusters)[best];
    target.push_back(row);
    SuppressClustersInPlace(relation, Clustering{target});
  }
}

}  // namespace diva
