#ifndef DIVA_ANON_DISTANCE_H_
#define DIVA_ANON_DISTANCE_H_

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "relation/relation.h"

namespace diva {

/// Normalized tuple distance over quasi-identifier attributes:
/// categorical attributes contribute 0/1 (Hamming), numeric attributes
/// contribute |a - b| / range. Suppressed cells mismatch everything
/// (including other suppressed cells, except themselves by identity).
///
/// Precomputes once, per numeric attribute, a flat table of every
/// dictionary code's numeric value and the attribute's range; Distance()
/// and the baselines' numeric reads (OKA centroids, Mondrian sort keys)
/// then index that table instead of going through the dictionary.
class DistanceMetric {
 public:
  explicit DistanceMetric(const Relation& relation);

  /// Distance in [0, |QI|] between two rows: the sum of Term() over the
  /// QI columns, in schema order.
  double Distance(RowId a, RowId b) const;

  /// Column `col`'s term of Distance() for cells `a` and `b`: 1 if either
  /// is suppressed (two stars included) or two categorical values
  /// differ, 0 for equal values, |a - b| / range for numeric values.
  double Term(size_t col, ValueCode a, ValueCode b) const {
    if (a == kSuppressed || b == kSuppressed) return 1.0;
    if (a == b) return 0.0;
    if (!IsNumericColumn(col)) return 1.0;
    return std::fabs(NumericValue(col, a) - NumericValue(col, b)) *
           inv_range_[col];
  }

  /// True if attribute `col` is measured numerically (declared numeric
  /// and every dictionary value parses as a number).
  bool IsNumericColumn(size_t col) const {
    return value_offset_[col] != kNotNumeric;
  }

  /// The numeric value of `code` (not kSuppressed) in numeric attribute
  /// `col`: the same double as `*dictionary(col).NumericValueOf(code)`.
  double NumericValue(size_t col, ValueCode code) const {
    return values_[value_offset_[col] + static_cast<size_t>(code)];
  }

  /// max - min over the attribute's numeric domain; 0 when the domain is
  /// degenerate or the column is not numeric.
  double Range(size_t col) const { return range_[col]; }

  /// 1 / (max - min) over the attribute's numeric domain; 0 when the
  /// domain is degenerate or the column is not numeric.
  double InvRange(size_t col) const { return inv_range_[col]; }

 private:
  static constexpr size_t kNotNumeric = std::numeric_limits<size_t>::max();

  const Relation* relation_;
  std::vector<double> values_;        // numeric attributes' tables, flat
  std::vector<size_t> value_offset_;  // per attribute; kNotNumeric if not
  std::vector<double> range_;         // per attribute; 0 if degenerate
  std::vector<double> inv_range_;     // per attribute; 0 if degenerate
};

/// Incremental suppression-cost tracker for greedy clustering (k-member).
/// Maintains, per QI attribute, the value shared by every member so far
/// (or "diverged"). Adding a tuple that disagrees on d more attributes
/// raises the cluster's ★ count from size*div to (size+1)*(div+d).
class ClusterCostTracker {
 public:
  explicit ClusterCostTracker(const Relation& relation);

  /// Restarts the cluster with a single seed row.
  void Reset(RowId seed);

  /// ★s added to the cluster's total if `candidate` joined now.
  size_t CostIncrease(RowId candidate) const;

  /// ★s added by a candidate that differs from common() on `d` of the
  /// still-shared attributes: (size+1)*(div+d) - size*div, strictly
  /// increasing in d.
  size_t CostIncreaseForDivergence(size_t d) const {
    return (size_ + 1) * (divergent_ + d) - size_ * divergent_;
  }

  /// Adds `candidate` to the cluster.
  void Add(RowId candidate);

  /// Per QI position, the code every member shares, or kSuppressed once
  /// the members diverged there.
  std::span<const ValueCode> common() const { return common_; }

  size_t size() const { return size_; }
  /// Current total ★ count of the cluster.
  size_t TotalCost() const { return size_ * divergent_; }

 private:
  const Relation* relation_;
  std::vector<ValueCode> common_;  // per QI index position
  size_t size_ = 0;
  size_t divergent_ = 0;
};

}  // namespace diva

#endif  // DIVA_ANON_DISTANCE_H_
