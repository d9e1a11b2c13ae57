#ifndef DIVA_RELATION_DICTIONARY_H_
#define DIVA_RELATION_DICTIONARY_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "relation/value.h"

namespace diva {

/// Per-attribute value dictionary: interns strings to dense ValueCodes in
/// first-seen order and supports reverse lookup. Also caches a numeric
/// interpretation of each value so numeric attributes (e.g., AGE) can be
/// ordered and measured without re-parsing.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the code for `value`, interning it if new.
  ValueCode GetOrInsert(std::string_view value);

  /// Returns the code for `value` if present.
  std::optional<ValueCode> Find(std::string_view value) const;

  /// Returns the string for `code`. `code` must be a valid code of this
  /// dictionary (kSuppressed is not; render that at a higher level).
  const std::string& ValueOf(ValueCode code) const;

  /// Numeric interpretation of `code` if the interned string parses as a
  /// number (used for numeric attribute distance and Mondrian splits).
  std::optional<double> NumericValueOf(ValueCode code) const;

  /// True if every interned value parses as a number (and the dictionary
  /// is non-empty).
  bool AllNumeric() const;

  /// Number of distinct interned values.
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

 private:
  /// Transparent hash: lookups by string_view build no std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view value) const {
      return std::hash<std::string_view>{}(value);
    }
  };

  std::vector<std::string> values_;
  std::vector<std::optional<double>> numeric_values_;
  std::unordered_map<std::string, ValueCode, Hash, std::equal_to<>> index_;
};

}  // namespace diva

#endif  // DIVA_RELATION_DICTIONARY_H_
