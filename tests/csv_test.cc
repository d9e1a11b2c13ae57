#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "relation/csv.h"
#include "tests/csv_test_util.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using csv_internal::kBlockBytes;
using csv_internal::kChunkBytes;
using csv_internal::kWriteBatchChunks;
using csv_internal::kWriteChunkRows;
using testing::CsvOutcome;
using testing::MedicalRelation;
using testing::MedicalSchema;
using testing::ReadAtWidth;
using testing::ScopedPoolWidth;

TEST(CsvTest, RoundTripThroughString) {
  Relation original = MedicalRelation();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(original, out).ok());

  std::istringstream in(out.str());
  auto read = ReadCsv(in, MedicalSchema());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->NumRows(), original.NumRows());
  for (RowId row = 0; row < original.NumRows(); ++row) {
    for (size_t col = 0; col < original.NumAttributes(); ++col) {
      EXPECT_EQ(read->ValueString(row, col), original.ValueString(row, col))
          << "row " << row << " col " << col;
    }
  }
}

TEST(CsvTest, HeaderValidated) {
  std::istringstream in("WRONG,ETH,AGE,PRV,CTY,DIAG\n");
  auto read = ReadCsv(in, MedicalSchema());
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, MissingHeaderRejected) {
  std::istringstream in("");
  auto read = ReadCsv(in, MedicalSchema());
  EXPECT_FALSE(read.ok());
}

TEST(CsvTest, NoHeaderMode) {
  std::istringstream in("Female,Asian,30,BC,Vancouver,Flu\n");
  CsvOptions options;
  options.has_header = false;
  auto read = ReadCsv(in, MedicalSchema(), options);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->NumRows(), 1u);
  EXPECT_EQ(read->ValueString(0, 1), "Asian");
}

TEST(CsvTest, QuotedFieldsWithDelimiterAndQuotes) {
  std::istringstream in(
      "GEN,ETH,AGE,PRV,CTY,DIAG\n"
      "Female,\"As,ian\",30,BC,\"Van\"\"couver\",Flu\n");
  auto read = ReadCsv(in, MedicalSchema());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->ValueString(0, 1), "As,ian");
  EXPECT_EQ(read->ValueString(0, 4), "Van\"couver");
}

TEST(CsvTest, QuotedFieldsSurviveRoundTrip) {
  auto relation = RelationFromRows(
      MedicalSchema(), {{"Fe,male", "A\"B", "30", "line\nbreak", "v", "d"}});
  ASSERT_TRUE(relation.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*relation, out).ok());
  std::istringstream in(out.str());
  auto read = ReadCsv(in, MedicalSchema());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->ValueString(0, 0), "Fe,male");
  EXPECT_EQ(read->ValueString(0, 1), "A\"B");
  EXPECT_EQ(read->ValueString(0, 3), "line\nbreak");
}

TEST(CsvTest, StarsParseAsSuppressed) {
  std::istringstream in(
      "GEN,ETH,AGE,PRV,CTY,DIAG\n"
      "*,Asian,30,BC,★,Flu\n");
  auto read = ReadCsv(in, MedicalSchema());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->IsSuppressed(0, 0));
  EXPECT_TRUE(read->IsSuppressed(0, 4));
}

TEST(CsvTest, ArityMismatchReportsLine) {
  std::istringstream in(
      "GEN,ETH,AGE,PRV,CTY,DIAG\n"
      "Female,Asian,30,BC,Vancouver,Flu\n"
      "too,short\n");
  auto read = ReadCsv(in, MedicalSchema());
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("line 3"), std::string::npos);
}

TEST(CsvTest, EmbeddedNulRejectedWithLineNumber) {
  std::string data = "GEN,ETH,AGE,PRV,CTY,DIAG\nFemale,As";
  data.push_back('\0');
  data += "ian,30,BC,Vancouver,Flu\n";
  std::istringstream in(data);
  auto read = ReadCsv(in, MedicalSchema());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("NUL"), std::string::npos);
  EXPECT_NE(read.status().message().find("line 2"), std::string::npos);
}

TEST(CsvTest, EmbeddedNulInQuotedFieldRejected) {
  std::string data = "GEN,ETH,AGE,PRV,CTY,DIAG\nFemale,\"As";
  data.push_back('\0');
  data += "ian\",30,BC,Vancouver,Flu\n";
  std::istringstream in(data);
  auto read = ReadCsv(in, MedicalSchema());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, OversizedFieldRejectedWithLineNumber) {
  CsvOptions options;
  options.max_field_bytes = 16;
  std::string data = "GEN,ETH,AGE,PRV,CTY,DIAG\nFemale," +
                     std::string(64, 'x') + ",30,BC,Vancouver,Flu\n";
  std::istringstream in(data);
  auto read = ReadCsv(in, MedicalSchema(), options);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("max_field_bytes"),
            std::string::npos);
  EXPECT_NE(read.status().message().find("line 2"), std::string::npos);
}

TEST(CsvTest, FieldLimitZeroDisablesTheCheck) {
  CsvOptions options;
  options.max_field_bytes = 0;
  std::string data = "GEN,ETH,AGE,PRV,CTY,DIAG\nFemale," +
                     std::string(4096, 'x') + ",30,BC,Vancouver,Flu\n";
  std::istringstream in(data);
  auto read = ReadCsv(in, MedicalSchema(), options);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->ValueString(0, 1).size(), 4096u);
}

TEST(CsvTest, RaggedRowsNeverAbort) {
  // Too-short and too-long rows are Status errors naming the line, for
  // any header mode.
  std::istringstream too_long(
      "GEN,ETH,AGE,PRV,CTY,DIAG\n"
      "Female,Asian,30,BC,Vancouver,Flu,extra\n");
  auto read = ReadCsv(too_long, MedicalSchema());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("line 2"), std::string::npos);

  CsvOptions headerless;
  headerless.has_header = false;
  std::istringstream too_short("too,short\n");
  auto read2 = ReadCsv(too_short, MedicalSchema(), headerless);
  ASSERT_FALSE(read2.ok());
  EXPECT_NE(read2.status().message().find("line 1"), std::string::npos);
}

TEST(CsvTest, CrLfLineEndings) {
  std::istringstream in(
      "GEN,ETH,AGE,PRV,CTY,DIAG\r\n"
      "Female,Asian,30,BC,Vancouver,Flu\r\n");
  auto read = ReadCsv(in, MedicalSchema());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->NumRows(), 1u);
  EXPECT_EQ(read->ValueString(0, 5), "Flu");
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  std::istringstream in(
      "GEN,ETH,AGE,PRV,CTY,DIAG\n"
      "\"unterminated,Asian,30,BC,V,Flu\n");
  auto read = ReadCsv(in, MedicalSchema());
  EXPECT_FALSE(read.ok());
}

TEST(CsvTest, FileRoundTrip) {
  const char* path = "csv_test_roundtrip.csv";
  Relation original = MedicalRelation();
  ASSERT_TRUE(WriteCsvFile(original, path).ok());
  auto read = ReadCsvFile(path, MedicalSchema());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->NumRows(), original.NumRows());
  std::remove(path);
}

TEST(CsvTest, MissingFileIsIoError) {
  auto read = ReadCsvFile("/nonexistent/nope.csv", MedicalSchema());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, FieldCapIsInclusiveInEveryPosition) {
  // A field of exactly max_field_bytes bytes is accepted wherever it sits
  // (before a delimiter, before a newline, at the end of the input,
  // quoted or not); one byte more is rejected.
  constexpr size_t kCap = 16;
  CsvOptions options;
  options.max_field_bytes = kCap;
  enum class Position { kMidRecord, kBeforeNewline, kAtEof };
  for (size_t bytes : {kCap, kCap + 1}) {
    for (Position position :
         {Position::kMidRecord, Position::kBeforeNewline, Position::kAtEof}) {
      for (bool quoted : {false, true}) {
        const std::string value(bytes, 'x');
        const std::string cell = quoted ? "\"" + value + "\"" : value;
        const bool mid = position == Position::kMidRecord;
        std::string data = "GEN,ETH,AGE,PRV,CTY,DIAG\n";
        data += mid ? "Female," + cell + ",30,BC,Vancouver,Flu"
                    : "Female,Asian,30,BC,Vancouver," + cell;
        if (position != Position::kAtEof) data += "\n";
        SCOPED_TRACE(::testing::Message()
                     << bytes << " bytes, position "
                     << static_cast<int>(position) << ", quoted " << quoted);
        std::istringstream in(data);
        auto read = ReadCsv(in, MedicalSchema(), options);
        if (bytes == kCap) {
          ASSERT_TRUE(read.ok()) << read.status().ToString();
          EXPECT_EQ(read->ValueString(0, mid ? 1 : 5), value);
        } else {
          ASSERT_FALSE(read.ok());
          EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
          EXPECT_EQ(read.status().message(),
                    "line 2: CSV field exceeds max_field_bytes = 16");
        }
      }
    }
  }
}

/// The r-th quote-free filler row (every fifth ends in CRLF).
const std::string& FillerRow(size_t r) {
  static std::vector<std::string>* rows = new std::vector<std::string>();
  const char* kGen[] = {"Female", "Male"};
  const char* kEth[] = {"Asian", "African", "Caucasian"};
  const char* kPrv[] = {"AB", "BC", "MB", "ON"};
  while (rows->size() <= r) {
    const size_t i = rows->size();
    rows->push_back(std::string(kGen[i % 2]) + "," + kEth[i % 3] + "," +
                    std::to_string(20 + i % 61) + "," + kPrv[i % 4] +
                    ",City" + std::to_string(i % 37) + ",D" +
                    std::to_string(i % 13) + (i % 5 == 0 ? "\r\n" : "\n"));
  }
  return (*rows)[r];
}

/// Appends filler rows to `text`, then one padded row, so that `text`
/// ends exactly at byte `size`. `rows` counts the records.
void FillTo(std::string* text, size_t size, size_t* rows) {
  while (text->size() + FillerRow(*rows).size() + 19 <= size) {
    *text += FillerRow(*rows);
    ++*rows;
  }
  const size_t left = size - text->size();
  ASSERT_GE(left, 19u);
  *text += "Male,Pad,1,ON,Pad," + std::string(left - 19, 'z') + "\n";
  ++*rows;
}

TEST(CsvTest, RecordsStraddlingChunkAndBlockCutsReadAlikeAtEveryWidth) {
  // Special records whose quoted newlines, "" escapes, CRLF, lone CR and
  // star cells straddle a chunk cut and the first block cut; wherever
  // the cut falls, the relation is the same at widths 1, 2, 8.
  ScopedPoolWidth restore;
  const std::string special =
      "Female,\"two\r\nli\"\"nes\",30,BC,\"Van,couver\",Flu\r\n"
      "Male,Asian,31,AB,\u2605,*\r"
      "Male,Asian,32,AB,Calgary,Flu\n";
  // The cut falls just before or just after each byte the state machine
  // looks past: quotes, CR and LF.
  std::vector<size_t> shifts;
  for (size_t i = 0; i < special.size(); ++i) {
    if (special[i] == '"' || special[i] == '\r' || special[i] == '\n') {
      for (size_t shift : {i, i + 1}) {
        if (shift > 0 && (shifts.empty() || shifts.back() != shift)) {
          shifts.push_back(shift);
        }
      }
    }
  }
  for (size_t cut : {kChunkBytes, kBlockBytes}) {
    for (size_t shift : shifts) {
      SCOPED_TRACE(::testing::Message() << "cut " << cut << " shift " << shift);
      std::string text = "GEN,ETH,AGE,PRV,CTY,DIAG\n";
      size_t rows = 0;
      FillTo(&text, cut - shift, &rows);
      text += special;
      const size_t before = rows;
      FillTo(&text, text.size() + kChunkBytes + 100, &rows);
      const CsvOutcome one = ReadAtWidth(text, MedicalSchema(), 1);
      ASSERT_EQ(one.code, StatusCode::kOk) << one.message;
      ASSERT_EQ(one.codes.size(), (rows + 3) * 6);
      // The first special record's cells, through the dictionaries.
      const size_t first = before * 6;
      EXPECT_EQ(one.dictionaries[1][one.codes[first + 1]],
                "two\r\nli\"nes");
      EXPECT_EQ(one.dictionaries[4][one.codes[first + 4]], "Van,couver");
      EXPECT_EQ(one.codes[first + 6 + 4], kSuppressed);
      EXPECT_EQ(one.codes[first + 6 + 5], kSuppressed);
      EXPECT_EQ(one.dictionaries[2][one.codes[first + 12 + 2]], "32");
      EXPECT_EQ(ReadAtWidth(text, MedicalSchema(), 2), one);
      EXPECT_EQ(ReadAtWidth(text, MedicalSchema(), 8), one);
    }
  }
}

TEST(CsvTest, MultiBlockInputInternsInFirstAppearanceOrderAtEveryWidth) {
  // Three blocks of quote-free rows (CRLF and LF endings, a lone CR,
  // star cells, no trailing newline): codes number each column's values
  // in order of first appearance, at every width.
  ScopedPoolWidth restore;
  std::string text = "GEN,ETH,AGE,PRV,CTY,DIAG\r\n";
  size_t rows = 0;
  FillTo(&text, kBlockBytes + 3 * kChunkBytes, &rows);
  text += "*,\u2605,99,NEW,CityX,DX\rFemale,Asian,98,*,\u2605,DY\n";
  rows += 2;
  FillTo(&text, 2 * kBlockBytes + kChunkBytes / 2, &rows);
  text += "Male,Late,97,YT,CityZ,DZ";  // no trailing newline
  ++rows;

  const CsvOutcome one = ReadAtWidth(text, MedicalSchema(), 1);
  ASSERT_EQ(one.code, StatusCode::kOk) << one.message;
  ASSERT_EQ(one.codes.size(), rows * 6);
  for (size_t col = 0; col < 6; ++col) {
    // The next new code a column may use is always one past the largest
    // so far: first-appearance order.
    ValueCode next = 0;
    for (size_t row = 0; row < rows; ++row) {
      const ValueCode code = one.codes[row * 6 + col];
      if (code == kSuppressed) continue;
      ASSERT_LE(code, next) << "row " << row << " col " << col;
      if (code == next) ++next;
    }
    EXPECT_EQ(static_cast<size_t>(next), one.dictionaries[col].size());
  }
  EXPECT_EQ(one.dictionaries[0].back(), "Male");  // only GEN values seen
  EXPECT_EQ(one.dictionaries[1].back(), "Late");
  EXPECT_EQ(one.dictionaries[5].back(), "DZ");
  EXPECT_EQ(ReadAtWidth(text, MedicalSchema(), 2), one);
  EXPECT_EQ(ReadAtWidth(text, MedicalSchema(), 8), one);
}

TEST(CsvTest, FirstBadRecordInALateChunkWinsAtEveryWidth) {
  // One bad record deep in the second block, a different one later: the
  // first in file order is reported, with its line, at every width.
  ScopedPoolWidth restore;
  CsvOptions options;
  options.max_field_bytes = 64;
  const std::string nul = std::string("Female,As") + '\0' + "ian,30,BC,V,Flu\n";
  const std::string faults[] = {
      nul,
      "Female,Asian,30\n",
      "\n",
      "Female," + std::string(65, 'x') + ",30,BC,V,Flu\n",
      "Female,Asian,30,BC,V,Flu,extra\n",
  };
  const std::string messages[] = {
      "CSV input contains an embedded NUL byte (binary data?)",
      "row has 3 fields, schema has 6",
      "row has 1 fields, schema has 6",
      "CSV field exceeds max_field_bytes = 64",
      "row has 7 fields, schema has 6",
  };
  for (size_t first = 0; first < 5; ++first) {
    const size_t second = (first + 1) % 5;
    SCOPED_TRACE(::testing::Message() << "fault " << first);
    std::string text = "GEN,ETH,AGE,PRV,CTY,DIAG\n";
    size_t rows = 0;
    FillTo(&text, kBlockBytes + 9 * kChunkBytes + 77, &rows);
    const size_t line = rows + 2;  // the header is line 1
    text += faults[first];
    FillTo(&text, text.size() + 2 * kChunkBytes, &rows);
    text += faults[second];
    FillTo(&text, text.size() + kChunkBytes, &rows);

    const CsvOutcome one = ReadAtWidth(text, MedicalSchema(), 1, options);
    EXPECT_EQ(one.code, StatusCode::kInvalidArgument);
    EXPECT_EQ(one.message, "line " + std::to_string(line) + ": " +
                               messages[first]);
    EXPECT_EQ(ReadAtWidth(text, MedicalSchema(), 2, options), one);
    EXPECT_EQ(ReadAtWidth(text, MedicalSchema(), 8, options), one);
  }
}

TEST(CsvTest, UnterminatedQuoteAfterManyBlocksNamesItsLine) {
  ScopedPoolWidth restore;
  std::string text = "GEN,ETH,AGE,PRV,CTY,DIAG\n";
  size_t rows = 0;
  FillTo(&text, 2 * kBlockBytes + 5, &rows);
  const size_t line = rows + 2;  // the header is line 1
  text += "Female,\"Asian,30,BC,V,Flu\n";
  FillTo(&text, text.size() + kChunkBytes, &rows);
  const CsvOutcome one = ReadAtWidth(text, MedicalSchema(), 1);
  EXPECT_EQ(one.message, "line " + std::to_string(line) +
                             ": unterminated quoted CSV field");
  EXPECT_EQ(ReadAtWidth(text, MedicalSchema(), 8), one);
}

TEST(CsvTest, ReadFailpointFiresOnItsHitAtWidthEight) {
  // csv.read.record fires once per record in record order, so its 3rd
  // hit is the 3rd record even when many chunks parse in parallel.
  ScopedPoolWidth restore;
  std::string text = "GEN,ETH,AGE,PRV,CTY,DIAG\n";
  size_t rows = 0;
  FillTo(&text, 4 * kChunkBytes, &rows);
  SetParallelThreads(8);
  failpoint::Reset();
  failpoint::Arm("csv.read.record", StatusCode::kIoError, 3);
  std::istringstream in(text);
  auto read = ReadCsv(in, MedicalSchema());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_EQ(failpoint::HitCount("csv.read.record"), 3u);
  failpoint::Reset();
}

TEST(CsvTest, WriterBytesAreTheSameAtEveryWidth) {
  // Several write batches of rows whose values need quoting: the bytes
  // at widths 2 and 8 equal the width-1 bytes, which equal the rows
  // rendered one cell at a time.
  ScopedPoolWidth restore;
  std::vector<std::vector<std::string>> rows;
  const size_t count = (kWriteBatchChunks + 3) * kWriteChunkRows + 17;
  for (size_t r = 0; r < count; ++r) {
    rows.push_back({r % 3 == 0 ? "Fe,male" : "Male",
                    "A\"" + std::to_string(r % 7), std::to_string(r % 90),
                    r % 11 == 0 ? "line\nbreak" : "BC",
                    "City" + std::to_string(r % 40),
                    r % 5 == 0 ? "cr\r" : "Flu"});
  }
  auto relation = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  relation->Set(7, 2, kSuppressed);

  std::string expected = "GEN,ETH,AGE,PRV,CTY,DIAG\n";
  for (RowId row = 0; row < relation->NumRows(); ++row) {
    for (size_t col = 0; col < 6; ++col) {
      if (col > 0) expected += ',';
      const std::string value = relation->ValueString(row, col);
      if (value.find_first_of(",\"\r\n") == std::string::npos) {
        expected += value;
        continue;
      }
      expected += '"';
      for (char c : value) {
        if (c == '"') expected += '"';
        expected += c;
      }
      expected += '"';
    }
    expected += '\n';
  }
  for (size_t threads : {1, 2, 8}) {
    SetParallelThreads(threads);
    std::ostringstream out;
    ASSERT_TRUE(WriteCsv(*relation, out).ok());
    EXPECT_EQ(out.str(), expected) << "width " << threads;
  }
}

TEST(CsvTest, WriteFailpointLeavesExactlyTheRowsBeforeIt) {
  ScopedPoolWidth restore;
  std::vector<std::vector<std::string>> rows;
  for (size_t r = 0; r < 3 * kWriteChunkRows; ++r) {
    rows.push_back({"Male", "Asian", std::to_string(r), "BC", "V", "Flu"});
  }
  auto relation = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  const size_t hit = kWriteChunkRows + 5;
  SetParallelThreads(8);
  failpoint::Reset();
  failpoint::Arm("csv.write.row", StatusCode::kIoError, hit);
  std::ostringstream out;
  Status written = WriteCsv(*relation, out);
  EXPECT_EQ(written.code(), StatusCode::kIoError);
  EXPECT_EQ(failpoint::HitCount("csv.write.row"), hit);
  failpoint::Reset();
  const std::string text = out.str();
  EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
            hit);  // the header and the hit - 1 rows before the firing
  const std::string last_row =
      "\nMale,Asian," + std::to_string(hit - 2) + ",BC,V,Flu\n";
  EXPECT_EQ(text.substr(text.size() - last_row.size()), last_row);
}

}  // namespace
}  // namespace diva
