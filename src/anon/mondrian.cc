#include "anon/mondrian.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "anon/distance.h"
#include "common/counters.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/trace.h"

namespace diva {

namespace {

/// Scalar sort key of a row on one attribute: the numeric value for
/// numeric attributes, the dictionary code otherwise (an arbitrary but
/// consistent total order; suppressed sorts first).
double SortKey(const Relation& relation, const DistanceMetric& metric,
               RowId row, size_t col) {
  ValueCode code = relation.At(row, col);
  if (code == kSuppressed) return -1e300;
  if (metric.IsNumericColumn(col)) return metric.NumericValue(col, code);
  return static_cast<double>(code);
}

/// Normalized spread of `col` over `rows`: fraction of the attribute's
/// global span (numeric) or of its domain size (categorical) covered.
double Spread(const Relation& relation, const DistanceMetric& metric,
              const std::vector<RowId>& rows, size_t col) {
  if (rows.empty()) return 0.0;
  if (metric.IsNumericColumn(col)) {
    double lo = SortKey(relation, metric, rows[0], col);
    double hi = lo;
    for (RowId row : rows) {
      double v = SortKey(relation, metric, row, col);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    double range = metric.Range(col);
    return range > 0.0 ? (hi - lo) / range : 0.0;
  }
  std::unordered_set<ValueCode> distinct;
  for (RowId row : rows) distinct.insert(relation.At(row, col));
  size_t domain = relation.dictionary(col).size();
  return domain > 0
             ? static_cast<double>(distinct.size()) / static_cast<double>(domain)
             : 0.0;
}

/// Tries to split `rows` on `col`: sorts by the attribute's key and cuts
/// at the value boundary closest to the median such that both sides keep
/// >= k rows. Returns false when no such boundary exists.
bool TrySplit(const Relation& relation, const DistanceMetric& metric,
              const std::vector<RowId>& rows, size_t col, size_t k,
              std::vector<RowId>* lhs, std::vector<RowId>* rhs) {
  if (rows.size() < 2 * k) return false;
  std::vector<RowId> sorted = rows;
  std::stable_sort(sorted.begin(), sorted.end(), [&](RowId a, RowId b) {
    return SortKey(relation, metric, a, col) <
           SortKey(relation, metric, b, col);
  });

  // Candidate cut positions: indices i where key(i-1) != key(i), so equal
  // values stay together. Pick the one closest to the middle respecting k.
  size_t n = sorted.size();
  size_t best_cut = 0;
  double best_gap = 1e300;
  for (size_t i = k; i + k <= n; ++i) {
    double prev = SortKey(relation, metric, sorted[i - 1], col);
    double curr = SortKey(relation, metric, sorted[i], col);
    if (prev == curr) continue;
    double gap = std::fabs(static_cast<double>(i) -
                           static_cast<double>(n) / 2.0);
    if (gap < best_gap) {
      best_gap = gap;
      best_cut = i;
    }
  }
  if (best_cut == 0) return false;
  lhs->assign(sorted.begin(), sorted.begin() + best_cut);
  rhs->assign(sorted.begin() + best_cut, sorted.end());
  return true;
}

void Partition(const Relation& relation, const DistanceMetric& metric,
               std::vector<RowId> rows, size_t k, Clustering* out) {
  const auto& qi = relation.schema().qi_indices();

  if (rows.size() >= 2 * k) {
    // Attributes by decreasing spread; first that admits an allowable cut
    // wins (the classic "choose widest dimension" heuristic with
    // fallback).
    std::vector<size_t> order(qi.begin(), qi.end());
    std::vector<double> spread(relation.NumAttributes(), 0.0);
    for (size_t col : qi) spread[col] = Spread(relation, metric, rows, col);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return spread[a] > spread[b];
    });
    for (size_t col : order) {
      std::vector<RowId> lhs;
      std::vector<RowId> rhs;
      if (TrySplit(relation, metric, rows, col, k, &lhs, &rhs)) {
        Partition(relation, metric, std::move(lhs), k, out);
        Partition(relation, metric, std::move(rhs), k, out);
        return;
      }
    }
  }
  out->push_back(std::move(rows));
}

}  // namespace

Result<Clustering> MondrianAnonymizer::BuildClusters(
    const Relation& relation, std::span<const RowId> rows, size_t k) {
  DIVA_TRACE_SPAN("baseline/mondrian");
  DIVA_RETURN_IF_ERROR(DIVA_FAIL("mondrian.build"));
  // Mondrian deliberately ignores options_.cancel: it is the deadline
  // fallback and near-linear, so it always runs to completion.
  (void)options_;
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (rows.empty()) return Clustering{};
  if (rows.size() < k) {
    return Status::Infeasible(
        "cannot form a k-anonymous group from " +
        std::to_string(rows.size()) + " < k = " + std::to_string(k) +
        " tuples");
  }
  DistanceMetric metric(relation);
  Clustering clusters;
  Partition(relation, metric, {rows.begin(), rows.end()}, k, &clusters);
  for (const Cluster& c : clusters) {
    DIVA_CHECK_MSG(c.size() >= k, "Mondrian produced an undersized partition");
  }
  DIVA_COUNTER_ADD("mondrian.clusters", clusters.size());
  return clusters;
}

}  // namespace diva
