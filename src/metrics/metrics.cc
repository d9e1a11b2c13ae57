#include "metrics/metrics.h"

#include "common/parallel.h"
#include "relation/qi_groups.h"

namespace diva {

size_t CountStars(const Relation& relation) {
  // Exact integer sum of per-chunk star counts == the sequential scan.
  return ParallelReduce<size_t>(
      relation.NumRows(), /*grain=*/0, size_t{0},
      [&](size_t begin, size_t end) {
        size_t stars = 0;
        for (size_t row = begin; row < end; ++row) {
          for (size_t col = 0; col < relation.NumAttributes(); ++col) {
            if (relation.At(static_cast<RowId>(row), col) == kSuppressed) {
              ++stars;
            }
          }
        }
        return stars;
      },
      [](size_t a, size_t b) { return a + b; });
}

double SuppressionRatio(const Relation& relation) {
  size_t qi_cells = relation.NumRows() * relation.schema().qi_indices().size();
  if (qi_cells == 0) return 0.0;
  return static_cast<double>(CountStars(relation)) /
         static_cast<double>(qi_cells);
}

uint64_t Discernibility(const Relation& relation, size_t k) {
  QiGroups groups = ComputeQiGroups(relation);
  uint64_t n = relation.NumRows();
  // Integer penalty sum over groups; chunk partials add up exactly.
  return ParallelReduce<uint64_t>(
      groups.groups.size(), /*grain=*/0, uint64_t{0},
      [&](size_t begin, size_t end) {
        uint64_t disc = 0;
        for (size_t g = begin; g < end; ++g) {
          uint64_t size = groups.groups[g].size();
          disc += size >= k ? size * size : n * size;
        }
        return disc;
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

double DiscernibilityAccuracy(const Relation& relation, size_t k) {
  uint64_t n = relation.NumRows();
  if (n == 0 || n <= k) return 1.0;
  uint64_t disc = Discernibility(relation, k);
  double best = static_cast<double>(n) * static_cast<double>(k);
  double worst = static_cast<double>(n) * static_cast<double>(n);
  if (worst <= best) return 1.0;
  double accuracy =
      (worst - static_cast<double>(disc)) / (worst - best);
  if (accuracy < 0.0) return 0.0;
  if (accuracy > 1.0) return 1.0;
  return accuracy;
}

double SatisfiedFraction(const Relation& relation,
                         const ConstraintSet& constraints) {
  if (constraints.empty()) return 1.0;
  const size_t satisfied =
      constraints.size() - ViolatedConstraints(relation, constraints).size();
  return static_cast<double>(satisfied) /
         static_cast<double>(constraints.size());
}

double OverallAccuracy(const Relation& relation, size_t k,
                       const ConstraintSet& constraints) {
  return DiscernibilityAccuracy(relation, k) *
         SatisfiedFraction(relation, constraints);
}

}  // namespace diva
