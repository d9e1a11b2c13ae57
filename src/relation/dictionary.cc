#include "relation/dictionary.h"

#include <cstdlib>

#include "common/logging.h"

namespace diva {

namespace {

std::optional<double> TryParseNumber(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

}  // namespace

ValueCode Dictionary::GetOrInsert(std::string_view value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  ValueCode code = static_cast<ValueCode>(values_.size());
  values_.emplace_back(value);
  numeric_values_.push_back(TryParseNumber(values_.back()));
  index_.emplace(values_.back(), code);
  return code;
}

std::optional<ValueCode> Dictionary::Find(std::string_view value) const {
  auto it = index_.find(value);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& Dictionary::ValueOf(ValueCode code) const {
  DIVA_CHECK_MSG(code >= 0 && static_cast<size_t>(code) < values_.size(),
                 "dictionary code out of range");
  return values_[static_cast<size_t>(code)];
}

std::optional<double> Dictionary::NumericValueOf(ValueCode code) const {
  DIVA_CHECK_MSG(code >= 0 && static_cast<size_t>(code) < values_.size(),
                 "dictionary code out of range");
  return numeric_values_[static_cast<size_t>(code)];
}

bool Dictionary::AllNumeric() const {
  if (values_.empty()) return false;
  for (const auto& v : numeric_values_) {
    if (!v.has_value()) return false;
  }
  return true;
}

}  // namespace diva
