#include "core/constraint_graph.h"

#include <algorithm>

#include "constraint/conflict.h"

namespace diva {

bool ConstraintGraph::HasEdge(size_t i, size_t j) const {
  const auto& neighbors = adjacency[i];
  return std::binary_search(neighbors.begin(), neighbors.end(), j);
}

ConstraintGraph BuildConstraintGraph(const Relation& relation,
                                     const ConstraintSet& constraints) {
  ConstraintGraph graph;
  graph.targets.reserve(constraints.size());
  for (const auto& constraint : constraints) {
    graph.targets.push_back(constraint.TargetTuples(relation));
  }
  graph.adjacency.assign(constraints.size(), {});
  for (size_t i = 0; i < constraints.size(); ++i) {
    for (size_t j = i + 1; j < constraints.size(); ++j) {
      if (SortedIntersectionSize(graph.targets[i], graph.targets[j]) > 0) {
        graph.adjacency[i].push_back(j);
        graph.adjacency[j].push_back(i);
      }
    }
  }
  for (auto& neighbors : graph.adjacency) {
    std::sort(neighbors.begin(), neighbors.end());
  }
  return graph;
}

}  // namespace diva
