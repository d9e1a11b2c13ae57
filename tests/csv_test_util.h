#ifndef DIVA_TESTS_CSV_TEST_UTIL_H_
#define DIVA_TESTS_CSV_TEST_UTIL_H_

#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "relation/csv.h"
#include "relation/relation.h"

namespace diva {
namespace testing {

/// Everything a CSV read decides: its status, and on success each
/// dictionary's values in code order plus every cell's code.
struct CsvOutcome {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<std::vector<std::string>> dictionaries;
  std::vector<ValueCode> codes;

  bool operator==(const CsvOutcome&) const = default;
};

inline std::ostream& operator<<(std::ostream& out, const CsvOutcome& o) {
  out << "{" << StatusCodeToString(o.code) << " '" << o.message << "', "
      << o.codes.size() << " cells, dictionary sizes";
  for (const auto& dictionary : o.dictionaries) out << " " << dictionary.size();
  return out << "}";
}

inline CsvOutcome Capture(const Result<Relation>& read) {
  CsvOutcome outcome;
  if (!read.ok()) {
    outcome.code = read.status().code();
    outcome.message = read.status().message();
    return outcome;
  }
  const Relation& relation = *read;
  for (size_t col = 0; col < relation.NumAttributes(); ++col) {
    const Dictionary& dictionary = relation.dictionary(col);
    std::vector<std::string> values;
    for (size_t code = 0; code < dictionary.size(); ++code) {
      values.push_back(dictionary.ValueOf(static_cast<ValueCode>(code)));
    }
    outcome.dictionaries.push_back(std::move(values));
  }
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (ValueCode code : relation.Row(row)) outcome.codes.push_back(code);
  }
  return outcome;
}

/// Parses `text` with the global pool at `threads`.
inline CsvOutcome ReadAtWidth(const std::string& text,
                              std::shared_ptr<const Schema> schema,
                              size_t threads, const CsvOptions& options = {}) {
  SetParallelThreads(threads);
  std::istringstream in(text);
  return Capture(ReadCsv(in, std::move(schema), options));
}

/// Restores the global pool's width when the test scope ends.
class ScopedPoolWidth {
 public:
  ScopedPoolWidth() : saved_(ParallelThreads()) {}
  ~ScopedPoolWidth() { SetParallelThreads(saved_); }

  ScopedPoolWidth(const ScopedPoolWidth&) = delete;
  ScopedPoolWidth& operator=(const ScopedPoolWidth&) = delete;

 private:
  size_t saved_;
};

}  // namespace testing
}  // namespace diva

#endif  // DIVA_TESTS_CSV_TEST_UTIL_H_
