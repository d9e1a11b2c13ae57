#ifndef DIVA_CORE_CONSTRAINT_GRAPH_H_
#define DIVA_CORE_CONSTRAINT_GRAPH_H_

#include <vector>

#include "constraint/diversity_constraint.h"
#include "relation/relation.h"

namespace diva {

/// The constraint-interaction graph of Section 3.3: one node per
/// diversity constraint, an undirected edge between sigma_i and sigma_j
/// iff their target tuple sets overlap (I_si ∩ I_sj != ∅).
struct ConstraintGraph {
  /// targets[i] = I_sigma_i, sorted ascending by row id.
  std::vector<std::vector<RowId>> targets;
  /// adjacency[i] = indices of neighboring constraints (sorted).
  std::vector<std::vector<size_t>> adjacency;

  size_t NumNodes() const { return targets.size(); }
  bool HasEdge(size_t i, size_t j) const;
};

/// Builds the graph for (R, Sigma) — BuildGraph of Algorithm 3 — from one
/// ConstraintIndex pass: each row's hit list gives its targets, and every
/// distinct hit list of two or more constraints gives their edges.
ConstraintGraph BuildConstraintGraph(const Relation& relation,
                                     const ConstraintSet& constraints);

}  // namespace diva

#endif  // DIVA_CORE_CONSTRAINT_GRAPH_H_
