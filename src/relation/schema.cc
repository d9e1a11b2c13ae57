#include "relation/schema.h"

#include <unordered_set>

namespace diva {

Schema::Schema(std::vector<Attribute> attributes)
    : attributes_(std::move(attributes)) {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    switch (attributes_[i].role) {
      case AttributeRole::kIdentifier:
        identifier_indices_.push_back(i);
        break;
      case AttributeRole::kQuasiIdentifier:
        qi_indices_.push_back(i);
        break;
      case AttributeRole::kSensitive:
        sensitive_indices_.push_back(i);
        break;
    }
  }
}

Result<std::shared_ptr<const Schema>> Schema::Make(
    std::vector<Attribute> attributes) {
  if (attributes.empty()) {
    return Status::InvalidArgument("schema must have at least one attribute");
  }
  std::unordered_set<std::string> seen;
  for (const Attribute& attr : attributes) {
    if (attr.name.empty()) {
      return Status::InvalidArgument("attribute name must be non-empty");
    }
    if (!seen.insert(attr.name).second) {
      return Status::InvalidArgument("duplicate attribute name: " + attr.name);
    }
  }
  return std::shared_ptr<const Schema>(new Schema(std::move(attributes)));
}

std::optional<size_t> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return std::nullopt;
}

}  // namespace diva
