#include "constraint/conflict.h"

#include <algorithm>

#include "constraint/constraint_index.h"

namespace diva {

size_t SortedIntersectionSize(const std::vector<RowId>& a,
                              const std::vector<RowId>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double PairConflictRate(const Relation& relation,
                        const DiversityConstraint& a,
                        const DiversityConstraint& b) {
  const ConstraintSet pair = {a, b};
  const std::vector<std::vector<RowId>> targets =
      ConstraintIndex(relation, pair).Targets();
  if (targets[0].empty() || targets[1].empty()) return 0.0;
  size_t overlap = SortedIntersectionSize(targets[0], targets[1]);
  return static_cast<double>(overlap) /
         static_cast<double>(std::min(targets[0].size(), targets[1].size()));
}

double ConflictRate(const Relation& relation,
                    const ConstraintSet& constraints) {
  if (constraints.size() < 2) return 0.0;
  std::vector<std::vector<size_t>> adjacency;
  const std::vector<std::vector<RowId>> targets =
      ConstraintIndex(relation, constraints).Targets(&adjacency);

  // Only adjacent pairs overlap. Every other pair adds exactly 0.0, so
  // summing the adjacent ones in (i, j) order gives the all-pairs sum
  // bit for bit.
  double total = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    for (size_t j : adjacency[i]) {
      if (j < i) continue;
      size_t overlap = SortedIntersectionSize(targets[i], targets[j]);
      total += static_cast<double>(overlap) /
               static_cast<double>(std::min(targets[i].size(),
                                            targets[j].size()));
    }
  }
  const size_t n = constraints.size();
  return total / static_cast<double>(n * (n - 1) / 2);
}

}  // namespace diva
