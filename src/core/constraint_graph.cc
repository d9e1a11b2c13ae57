#include "core/constraint_graph.h"

#include <algorithm>

#include "constraint/constraint_index.h"

namespace diva {

bool ConstraintGraph::HasEdge(size_t i, size_t j) const {
  const auto& neighbors = adjacency[i];
  return std::binary_search(neighbors.begin(), neighbors.end(), j);
}

ConstraintGraph BuildConstraintGraph(const Relation& relation,
                                     const ConstraintSet& constraints) {
  ConstraintGraph graph;
  graph.targets =
      ConstraintIndex(relation, constraints).Targets(&graph.adjacency);
  return graph;
}

}  // namespace diva
