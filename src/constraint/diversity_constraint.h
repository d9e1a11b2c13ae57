#ifndef DIVA_CONSTRAINT_DIVERSITY_CONSTRAINT_H_
#define DIVA_CONSTRAINT_DIVERSITY_CONSTRAINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relation/relation.h"

namespace diva {

/// A diversity constraint sigma = (X[t], lambda_l, lambda_r)
/// (Definition 2.3, extended to multiple attributes): the published
/// relation must contain between lambda_l and lambda_r tuples whose
/// attributes X carry exactly the values t (suppressed cells never match).
///
/// Target values are stored as strings, so one constraint can be checked
/// against R, RΣ, and R* interchangeably. Questions about which rows match
/// are answered by a ConstraintIndex (constraint/constraint_index.h),
/// which resolves the whole set against one relation's dictionaries once.
class DiversityConstraint {
 public:
  /// Validates attribute names against `schema` and bounds
  /// (lower <= upper). Attribute list and value list must be the same
  /// length, non-empty, with no duplicate attributes.
  [[nodiscard]] static Result<DiversityConstraint> Make(const Schema& schema,
                                          std::vector<std::string> attributes,
                                          std::vector<std::string> values,
                                          uint32_t lower, uint32_t upper);

  /// Attribute indices X (in schema order of declaration).
  const std::vector<size_t>& attribute_indices() const {
    return attribute_indices_;
  }
  const std::vector<std::string>& attribute_names() const {
    return attribute_names_;
  }
  /// Target values t, parallel to attribute_indices().
  const std::vector<std::string>& values() const { return values_; }

  uint32_t lower() const { return lower_; }
  uint32_t upper() const { return upper_; }

  /// "ETH[Asian] in [2,5]" / "GEN,ETH[Male,African] in [1,3]".
  std::string ToString() const;

  bool operator==(const DiversityConstraint& other) const;

 private:
  DiversityConstraint() = default;

  std::vector<size_t> attribute_indices_;
  std::vector<std::string> attribute_names_;
  std::vector<std::string> values_;
  uint32_t lower_ = 0;
  uint32_t upper_ = 0;
};

/// A set Sigma of diversity constraints. R |= Sigma iff R satisfies every
/// member (Definition 2.3).
using ConstraintSet = std::vector<DiversityConstraint>;

/// True iff relation satisfies every constraint in `constraints`: each
/// occurrence count lies in [lower, upper].
bool SatisfiesAll(const Relation& relation, const ConstraintSet& constraints);

/// Indices of constraints in `constraints` violated by `relation`.
std::vector<size_t> ViolatedConstraints(const Relation& relation,
                                        const ConstraintSet& constraints);

/// Indices of constraints whose occurrence count, counts[i], lies
/// outside [lower, upper].
std::vector<size_t> ViolatedConstraints(const std::vector<size_t>& counts,
                                        const ConstraintSet& constraints);

/// Occurrence counts of every constraint (the validation count query of
/// Definition 2.3: tuples carrying the target values, suppressed cells
/// never matching) in one ConstraintIndex pass over the relation. Exact
/// integer sums, so the result is identical at every thread width.
std::vector<size_t> CountAllOccurrences(const Relation& relation,
                                        const ConstraintSet& constraints);

}  // namespace diva

#endif  // DIVA_CONSTRAINT_DIVERSITY_CONSTRAINT_H_
