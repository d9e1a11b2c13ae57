// Differential mutation fuzzer for the CSV reader and writer.
//
// The oracle is the record-at-a-time reader the block reader replaced:
// istream get()/peek(), one byte at a time, with the inclusive
// max_field_bytes bound. Inputs start from the committed seed corpus in
// tests/csv_corpus/ and take seeded mutations (quotes, "" escapes,
// delimiters, CR, LF, NUL and star cells inserted or deleted; a field
// grown past the cap; truncation). Every case must give the oracle's
// Status, code and message, or its dictionaries (code for code) and
// codes, at widths 1 and 8; and what reads back must write the oracle
// writer's bytes, which read and write back to themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relation/csv.h"
#include "tests/csv_test_util.h"

namespace diva {
namespace {

using testing::Capture;
using testing::ScopedPoolWidth;

namespace oracle {

bool ReadRecord(std::istream& input, char delimiter, size_t max_field_bytes,
                std::vector<std::string>* fields, Status* error) {
  fields->clear();
  int first = input.peek();
  if (first == EOF) return false;

  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  auto append = [&](char c) {
    if (max_field_bytes > 0 && field.size() >= max_field_bytes) {
      *error = Status::InvalidArgument(
          "CSV field exceeds max_field_bytes = " +
          std::to_string(max_field_bytes));
      return false;
    }
    field.push_back(c);
    return true;
  };
  while (true) {
    int ci = input.get();
    if (ci == EOF) {
      if (in_quotes) {
        *error = Status::InvalidArgument("unterminated quoted CSV field");
        return false;
      }
      break;
    }
    saw_any = true;
    char c = static_cast<char>(ci);
    if (c == '\0') {
      *error = Status::InvalidArgument(
          "CSV input contains an embedded NUL byte (binary data?)");
      return false;
    }
    if (in_quotes) {
      if (c == '"') {
        if (input.peek() == '"') {
          input.get();
          if (!append('"')) return false;
        } else {
          in_quotes = false;
        }
      } else if (!append(c)) {
        return false;
      }
      continue;
    }
    if (c == '"' && field.empty()) {
      in_quotes = true;
    } else if (c == delimiter) {
      fields->push_back(std::move(field));
      field.clear();
    } else if (c == '\r') {
      if (input.peek() == '\n') input.get();
      break;
    } else if (c == '\n') {
      break;
    } else if (!append(c)) {
      return false;
    }
  }
  if (!saw_any) return false;
  fields->push_back(std::move(field));
  return true;
}

Result<Relation> ReadCsv(std::istream& input,
                         std::shared_ptr<const Schema> schema,
                         const CsvOptions& options) {
  Relation relation(schema);
  std::vector<std::string> fields;
  Status error;
  size_t line = 0;
  if (options.has_header) {
    if (!ReadRecord(input, options.delimiter, options.max_field_bytes,
                    &fields, &error)) {
      DIVA_RETURN_IF_ERROR(error);
      return Status::InvalidArgument("CSV input is empty (expected header)");
    }
    ++line;
    if (fields.size() != schema->NumAttributes()) {
      return Status::InvalidArgument(
          "CSV header has " + std::to_string(fields.size()) +
          " columns, schema has " + std::to_string(schema->NumAttributes()));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      if (fields[i] != schema->attribute(i).name) {
        return Status::InvalidArgument("CSV header column " +
                                       std::to_string(i) + " is '" +
                                       fields[i] + "', schema expects '" +
                                       schema->attribute(i).name + "'");
      }
    }
  }
  while (ReadRecord(input, options.delimiter, options.max_field_bytes,
                    &fields, &error)) {
    ++line;
    auto row = relation.AppendRowStrings(fields);
    if (!row.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                     row.status().message());
    }
  }
  if (!error.ok()) {
    return Status(error.code(), "line " + std::to_string(line + 1) + ": " +
                                    error.message());
  }
  return relation;
}

void WriteField(std::ostream& out, const std::string& field, char delimiter) {
  bool quote = false;
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') quote = true;
  }
  if (!quote) {
    out << field;
    return;
  }
  out << '"';
  for (char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

std::string WriteCsv(const Relation& relation, const CsvOptions& options) {
  std::ostringstream output;
  if (options.has_header) {
    for (size_t i = 0; i < relation.NumAttributes(); ++i) {
      if (i > 0) output << options.delimiter;
      WriteField(output, relation.schema().attribute(i).name,
                 options.delimiter);
    }
    output << '\n';
  }
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (size_t col = 0; col < relation.NumAttributes(); ++col) {
      if (col > 0) output << options.delimiter;
      WriteField(output, relation.ValueString(row, col), options.delimiter);
    }
    output << '\n';
  }
  return output.str();
}

}  // namespace oracle

std::shared_ptr<const Schema> FuzzSchema() {
  auto schema = Schema::Make({{"A"}, {"B"}, {"C"}});
  DIVA_CHECK(schema.ok());
  return schema.value();
}

std::vector<std::string> LoadCorpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(DIVA_CSV_CORPUS_DIR)) {
    if (entry.path().extension() == ".csv") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const auto& path : paths) {
    std::ifstream file(path, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(file),
                        std::istreambuf_iterator<char>());
  }
  return corpus;
}

struct Case {
  std::string text;
  CsvOptions options;
};

void Mutate(std::string* text, size_t cap, Rng* rng) {
  static const std::string kTokens[] = {
      "\"", "\"\"", ",", ";", "\r", "\n", std::string(1, '\0'), "*",
      "\xe2\x98\x85"};
  const size_t size = text->size();
  const size_t at = static_cast<size_t>(rng->NextBounded(size + 1));
  switch (rng->NextBounded(6)) {
    case 0:  // insert a token
      text->insert(at, kTokens[rng->NextBounded(std::size(kTokens))]);
      break;
    case 1: {  // delete the token occurrence nearest after `at`
      const std::string& token = kTokens[rng->NextBounded(std::size(kTokens))];
      size_t found = text->find(token, at);
      if (found == std::string::npos) found = text->find(token);
      if (found != std::string::npos) text->erase(found, token.size());
      break;
    }
    case 2:  // delete a few bytes
      text->erase(at, static_cast<size_t>(rng->NextBounded(3)) + 1);
      break;
    case 3: {  // grow a field to around the cap
      const size_t run =
          cap == 0 || cap > 64 ? 64 : cap - 1 + rng->NextBounded(3);
      text->insert(at, std::string(run, 'x'));
      break;
    }
    case 4:  // truncate
      text->resize(at);
      break;
    default: {  // repeat a line
      const size_t begin = text->rfind('\n', at);
      const size_t start = begin == std::string::npos ? 0 : begin + 1;
      const size_t end = text->find('\n', at);
      const std::string line =
          text->substr(start, end == std::string::npos ? std::string::npos
                                                       : end - start + 1);
      text->insert(start, line);
      break;
    }
  }
}

/// Appends clean records with fields of one to three bytes so that
/// `text` grows by exactly `bytes` (at least 6) bytes.
void AppendFiller(std::string* text, size_t bytes, char delimiter) {
  for (size_t r = 0; bytes > 0; ++r) {
    const size_t row = bytes > 12 ? 6 : bytes;  // 6..12 bytes fit in one
    const size_t cells = row - 3;                // three fields, 3..9 bytes
    const size_t first = std::min<size_t>(3, cells - 2);
    const size_t second = std::min<size_t>(3, cells - first - 1);
    const size_t third = cells - first - second;
    *text += std::string(first, static_cast<char>('a' + r % 7)) + delimiter +
             std::string(second, r % 5 == 0 ? '*' : 'b') + delimiter +
             std::string(third, 'c') + '\n';
    bytes -= row;
  }
}

/// A seeded mutant of a corpus seed. With `cut` > 0, clean records go in
/// after the first line so that the mutated records that follow start
/// up to their own length before stream offset `cut`: a block or chunk
/// cut falls inside them.
Case MakeCase(const std::vector<std::string>& corpus, uint64_t seed,
              size_t cut) {
  Rng rng(seed);
  Case c;
  c.text = corpus[rng.NextBounded(corpus.size())];
  c.options.has_header = rng.NextBounded(8) != 0;
  if (rng.NextBounded(6) == 0) c.options.delimiter = ';';
  switch (rng.NextBounded(4)) {
    case 0:
      c.options.max_field_bytes = 0;
      break;
    case 1:
      c.options.max_field_bytes = 3 + rng.NextBounded(6);
      break;
    default:
      break;
  }
  const size_t mutations = 1 + rng.NextBounded(4);
  for (size_t i = 0; i < mutations; ++i) {
    Mutate(&c.text, c.options.max_field_bytes, &rng);
  }
  if (cut > 0) {
    const size_t newline = c.text.find('\n');
    const size_t body = newline == std::string::npos ? 0 : newline + 1;
    const size_t tail = c.text.size() - body;
    std::string text = c.text.substr(0, body);
    AppendFiller(&text, cut - body - rng.NextBounded(tail + 1),
                 c.options.delimiter);
    c.text = text + c.text.substr(body);
  }
  return c;
}

std::string Printable(const std::string& text) {
  std::string out;
  for (char c : text.substr(0, 300)) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\0') {
      out += "\\0";
    } else {
      out += c;
    }
  }
  return text.size() > 300 ? out + "..." : out;
}

/// Checks one case against the oracle at the current pool width.
void ExpectSameAsOracle(const Case& c, const std::string& label) {
  SCOPED_TRACE(label);
  const auto schema = FuzzSchema();
  std::istringstream oracle_in(c.text);
  const Result<Relation> expected =
      oracle::ReadCsv(oracle_in, schema, c.options);
  std::istringstream in(c.text);
  const Result<Relation> actual = ReadCsv(in, schema, c.options);
  ASSERT_EQ(Capture(actual), Capture(expected)) << Printable(c.text);
  if (!expected.ok()) return;

  std::ostringstream written;
  ASSERT_TRUE(WriteCsv(*actual, written, c.options).ok());
  ASSERT_EQ(written.str(), oracle::WriteCsv(*expected, c.options))
      << Printable(c.text);
  std::istringstream back_in(written.str());
  const Result<Relation> back = ReadCsv(back_in, schema, c.options);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  std::ostringstream rewritten;
  ASSERT_TRUE(WriteCsv(*back, rewritten, c.options).ok());
  EXPECT_EQ(rewritten.str(), written.str());
}

constexpr uint64_t kSeedBase = 0x5eedc5f00dULL;
constexpr size_t kSmallCases = 4000;
constexpr size_t kCutCases = 24;

TEST(CsvFuzzTest, CorpusSeedsReadAsTheOracleDoes) {
  ScopedPoolWidth restore;
  const std::vector<std::string> corpus = LoadCorpus();
  ASSERT_GE(corpus.size(), 8u) << "seed corpus missing: " DIVA_CSV_CORPUS_DIR;
  for (size_t threads : {1, 8}) {
    SetParallelThreads(threads);
    for (size_t i = 0; i < corpus.size(); ++i) {
      Case c;
      c.text = corpus[i];
      ExpectSameAsOracle(c, "corpus " + std::to_string(i));
      EXPECT_EQ(testing::ReadAtWidth(c.text, FuzzSchema(), threads).code,
                StatusCode::kOk)
          << "corpus seed " << i << " should parse cleanly";
    }
  }
}

TEST(CsvFuzzTest, MutantsMatchTheOracleAtWidthsOneAndEight) {
  ScopedPoolWidth restore;
  const std::vector<std::string> corpus = LoadCorpus();
  ASSERT_FALSE(corpus.empty());
  for (size_t threads : {1, 8}) {
    SetParallelThreads(threads);
    for (size_t i = 0; i < kSmallCases; ++i) {
      const Case c = MakeCase(corpus, kSeedBase + i, 0);
      ExpectSameAsOracle(c, "width " + std::to_string(threads) + " case " +
                                std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CsvFuzzTest, MutantsAcrossBlockAndChunkCutsMatchTheOracle) {
  // Half the cases put the mutated records across the first block cut,
  // half across a chunk cut a few chunks into the first block.
  ScopedPoolWidth restore;
  const std::vector<std::string> corpus = LoadCorpus();
  ASSERT_FALSE(corpus.empty());
  for (size_t threads : {1, 8}) {
    SetParallelThreads(threads);
    for (size_t i = 0; i < kCutCases; ++i) {
      const size_t cut = i % 2 == 0 ? csv_internal::kBlockBytes
                                    : 3 * csv_internal::kChunkBytes;
      const Case c = MakeCase(corpus, kSeedBase + 1000003 * (i + 1), cut);
      ExpectSameAsOracle(c, "width " + std::to_string(threads) + " cut case " +
                                std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace diva
