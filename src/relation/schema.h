#ifndef DIVA_RELATION_SCHEMA_H_
#define DIVA_RELATION_SCHEMA_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace diva {

/// Privacy role of an attribute (Samarati/Sweeney taxonomy).
enum class AttributeRole {
  /// Uniquely identifying (SSN, record id); dropped before publishing.
  kIdentifier,
  /// Quasi-identifier: subject to suppression and k-anonymity grouping.
  kQuasiIdentifier,
  /// Sensitive value: published as-is (never grouped, suppressible only by
  /// the Integrate repair when a diversity constraint targets it).
  kSensitive,
};

/// Value kind, controlling distance and split semantics.
enum class AttributeKind {
  kCategorical,
  kNumeric,
};

/// A single attribute declaration.
struct Attribute {
  std::string name;
  AttributeRole role = AttributeRole::kQuasiIdentifier;
  AttributeKind kind = AttributeKind::kCategorical;
};

/// Immutable attribute list with O(1) name lookup and cached index lists
/// per role. Shared (via shared_ptr) between a relation and its
/// anonymized derivatives.
class Schema {
 public:
  /// Builds a schema; attribute names must be non-empty and unique.
  [[nodiscard]] static Result<std::shared_ptr<const Schema>> Make(
      std::vector<Attribute> attributes);

  size_t NumAttributes() const { return attributes_.size(); }
  const Attribute& attribute(size_t i) const { return attributes_[i]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Index of the attribute named `name`, if any.
  std::optional<size_t> IndexOf(std::string_view name) const;

  /// Indices of quasi-identifier attributes, in schema order.
  const std::vector<size_t>& qi_indices() const { return qi_indices_; }
  /// Indices of sensitive attributes, in schema order.
  const std::vector<size_t>& sensitive_indices() const {
    return sensitive_indices_;
  }
  /// Indices of identifier attributes, in schema order.
  const std::vector<size_t>& identifier_indices() const {
    return identifier_indices_;
  }

  bool IsQuasiIdentifier(size_t i) const {
    return attributes_[i].role == AttributeRole::kQuasiIdentifier;
  }

 private:
  explicit Schema(std::vector<Attribute> attributes);

  std::vector<Attribute> attributes_;
  std::vector<size_t> qi_indices_;
  std::vector<size_t> sensitive_indices_;
  std::vector<size_t> identifier_indices_;
};

}  // namespace diva

#endif  // DIVA_RELATION_SCHEMA_H_
