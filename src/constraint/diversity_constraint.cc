#include "constraint/diversity_constraint.h"

#include <unordered_set>

#include "common/string_util.h"
#include "constraint/constraint_index.h"

namespace diva {

Result<DiversityConstraint> DiversityConstraint::Make(
    const Schema& schema, std::vector<std::string> attributes,
    std::vector<std::string> values, uint32_t lower, uint32_t upper) {
  if (attributes.empty()) {
    return Status::InvalidArgument(
        "diversity constraint needs at least one attribute");
  }
  if (attributes.size() != values.size()) {
    return Status::InvalidArgument(
        "constraint attribute/value arity mismatch: " +
        std::to_string(attributes.size()) + " vs " +
        std::to_string(values.size()));
  }
  if (lower > upper) {
    return Status::InvalidArgument(
        "constraint frequency range is empty: [" + std::to_string(lower) +
        "," + std::to_string(upper) + "]");
  }
  DiversityConstraint constraint;
  std::unordered_set<size_t> seen;
  for (const std::string& name : attributes) {
    auto index = schema.IndexOf(name);
    if (!index.has_value()) {
      return Status::NotFound("constraint references unknown attribute '" +
                              name + "'");
    }
    if (!seen.insert(*index).second) {
      return Status::InvalidArgument("constraint repeats attribute '" + name +
                                     "'");
    }
    constraint.attribute_indices_.push_back(*index);
  }
  constraint.attribute_names_ = std::move(attributes);
  constraint.values_ = std::move(values);
  constraint.lower_ = lower;
  constraint.upper_ = upper;
  return constraint;
}

std::string DiversityConstraint::ToString() const {
  std::string out = Join(attribute_names_, ",");
  out += "[";
  out += Join(values_, ",");
  out += "] in [";
  out += std::to_string(lower_);
  out += ",";
  out += std::to_string(upper_);
  out += "]";
  return out;
}

bool DiversityConstraint::operator==(const DiversityConstraint& other) const {
  return attribute_indices_ == other.attribute_indices_ &&
         values_ == other.values_ && lower_ == other.lower_ &&
         upper_ == other.upper_;
}

bool SatisfiesAll(const Relation& relation,
                  const ConstraintSet& constraints) {
  return ViolatedConstraints(relation, constraints).empty();
}

std::vector<size_t> ViolatedConstraints(const Relation& relation,
                                        const ConstraintSet& constraints) {
  return ViolatedConstraints(CountAllOccurrences(relation, constraints),
                             constraints);
}

std::vector<size_t> ViolatedConstraints(const std::vector<size_t>& counts,
                                        const ConstraintSet& constraints) {
  std::vector<size_t> violated;
  for (size_t i = 0; i < constraints.size(); ++i) {
    if (counts[i] < constraints[i].lower() || counts[i] > constraints[i].upper())
      violated.push_back(i);
  }
  return violated;
}

std::vector<size_t> CountAllOccurrences(const Relation& relation,
                                        const ConstraintSet& constraints) {
  return ConstraintIndex(relation, constraints).CountAll();
}

}  // namespace diva
