#include "anon/distance.h"

#include <algorithm>

#include "common/logging.h"

namespace diva {

DistanceMetric::DistanceMetric(const Relation& relation)
    : relation_(&relation),
      value_offset_(relation.NumAttributes(), kNotNumeric),
      range_(relation.NumAttributes(), 0.0),
      inv_range_(relation.NumAttributes(), 0.0) {
  for (size_t col : relation.schema().qi_indices()) {
    const Attribute& attr = relation.schema().attribute(col);
    if (attr.kind != AttributeKind::kNumeric) continue;
    const Dictionary& dict = relation.dictionary(col);
    if (!dict.AllNumeric()) continue;
    value_offset_[col] = values_.size();
    double lo = 0.0;
    double hi = 0.0;
    bool first = true;
    for (size_t code = 0; code < dict.size(); ++code) {
      double v = *dict.NumericValueOf(static_cast<ValueCode>(code));
      values_.push_back(v);
      if (first) {
        lo = hi = v;
        first = false;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    if (hi > lo) {
      range_[col] = hi - lo;
      inv_range_[col] = 1.0 / (hi - lo);
    }
  }
}

double DistanceMetric::Distance(RowId a, RowId b) const {
  double total = 0.0;
  for (size_t col : relation_->schema().qi_indices()) {
    total += Term(col, relation_->At(a, col), relation_->At(b, col));
  }
  return total;
}

ClusterCostTracker::ClusterCostTracker(const Relation& relation)
    : relation_(&relation),
      common_(relation.schema().qi_indices().size(), kSuppressed) {}

void ClusterCostTracker::Reset(RowId seed) {
  const auto& qi = relation_->schema().qi_indices();
  for (size_t i = 0; i < qi.size(); ++i) {
    common_[i] = relation_->At(seed, qi[i]);
  }
  size_ = 1;
  divergent_ = 0;
  // A seed with suppressed cells starts with those attributes diverged.
  for (size_t i = 0; i < qi.size(); ++i) {
    if (common_[i] == kSuppressed) ++divergent_;
  }
}

size_t ClusterCostTracker::CostIncrease(RowId candidate) const {
  DIVA_DCHECK(size_ > 0);
  const auto& qi = relation_->schema().qi_indices();
  size_t d = 0;
  for (size_t i = 0; i < qi.size(); ++i) {
    if (common_[i] == kSuppressed) continue;  // already diverged
    if (relation_->At(candidate, qi[i]) != common_[i]) ++d;
  }
  return CostIncreaseForDivergence(d);
}

void ClusterCostTracker::Add(RowId candidate) {
  DIVA_DCHECK(size_ > 0);
  const auto& qi = relation_->schema().qi_indices();
  for (size_t i = 0; i < qi.size(); ++i) {
    if (common_[i] == kSuppressed) continue;
    if (relation_->At(candidate, qi[i]) != common_[i]) {
      common_[i] = kSuppressed;
      ++divergent_;
    }
  }
  ++size_;
}

}  // namespace diva
