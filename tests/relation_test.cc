#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "relation/dictionary.h"
#include "relation/qi_groups.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalRelation;
using testing::MedicalSchema;

// ------------------------------------------------------------- Dictionary

TEST(DictionaryTest, InternsInFirstSeenOrder) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrInsert("a"), 0);
  EXPECT_EQ(dict.GetOrInsert("b"), 1);
  EXPECT_EQ(dict.GetOrInsert("a"), 0);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.ValueOf(0), "a");
  EXPECT_EQ(dict.ValueOf(1), "b");
}

TEST(DictionaryTest, FindDoesNotIntern) {
  Dictionary dict;
  EXPECT_FALSE(dict.Find("ghost").has_value());
  EXPECT_EQ(dict.size(), 0u);
  dict.GetOrInsert("real");
  EXPECT_EQ(*dict.Find("real"), 0);
}

TEST(DictionaryTest, NumericInterpretation) {
  Dictionary dict;
  ValueCode n = dict.GetOrInsert("42");
  ValueCode f = dict.GetOrInsert("3.5");
  ValueCode s = dict.GetOrInsert("hello");
  EXPECT_DOUBLE_EQ(*dict.NumericValueOf(n), 42.0);
  EXPECT_DOUBLE_EQ(*dict.NumericValueOf(f), 3.5);
  EXPECT_FALSE(dict.NumericValueOf(s).has_value());
  EXPECT_FALSE(dict.AllNumeric());
}

TEST(DictionaryTest, AllNumeric) {
  Dictionary dict;
  EXPECT_FALSE(dict.AllNumeric());  // empty
  dict.GetOrInsert("1");
  dict.GetOrInsert("2");
  EXPECT_TRUE(dict.AllNumeric());
}

// ------------------------------------------------------------- Schema

TEST(SchemaTest, RejectsEmptyAndDuplicates) {
  EXPECT_FALSE(Schema::Make({}).ok());
  EXPECT_FALSE(Schema::Make({{"", AttributeRole::kQuasiIdentifier,
                              AttributeKind::kCategorical}})
                   .ok());
  EXPECT_FALSE(Schema::Make({{"A", AttributeRole::kQuasiIdentifier,
                              AttributeKind::kCategorical},
                             {"A", AttributeRole::kSensitive,
                              AttributeKind::kCategorical}})
                   .ok());
}

TEST(SchemaTest, RoleIndexLists) {
  auto schema = MedicalSchema();
  EXPECT_EQ(schema->NumAttributes(), 6u);
  EXPECT_EQ(schema->qi_indices(), (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(schema->sensitive_indices(), (std::vector<size_t>{5}));
  EXPECT_TRUE(schema->identifier_indices().empty());
  EXPECT_TRUE(schema->IsQuasiIdentifier(0));
  EXPECT_FALSE(schema->IsQuasiIdentifier(5));
}

TEST(SchemaTest, IndexOf) {
  auto schema = MedicalSchema();
  EXPECT_EQ(*schema->IndexOf("ETH"), 1u);
  EXPECT_EQ(*schema->IndexOf("DIAG"), 5u);
  EXPECT_FALSE(schema->IndexOf("NOPE").has_value());
}

// ------------------------------------------------------------- Relation

TEST(RelationTest, BuildAndRead) {
  Relation r = MedicalRelation();
  EXPECT_EQ(r.NumRows(), 10u);
  EXPECT_EQ(r.NumAttributes(), 6u);
  EXPECT_EQ(r.ValueString(0, 0), "Female");
  EXPECT_EQ(r.ValueString(4, 1), "African");
  EXPECT_EQ(r.ValueString(9, 5), "Migraine");
}

TEST(RelationTest, SharedCodesAcrossEqualValues) {
  Relation r = MedicalRelation();
  // t1 and t2 are both Female Caucasian AB Calgary.
  EXPECT_EQ(r.At(0, 0), r.At(1, 0));
  EXPECT_EQ(r.At(0, 1), r.At(1, 1));
  EXPECT_NE(r.At(0, 2), r.At(1, 2));  // different ages
}

TEST(RelationTest, SuppressedRoundTrip) {
  auto relation = RelationFromRows(MedicalSchema(),
                                   {{"*", "Asian", "30", "BC", "*", "Flu"}});
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE(relation->IsSuppressed(0, 0));
  EXPECT_TRUE(relation->IsSuppressed(0, 4));
  EXPECT_FALSE(relation->IsSuppressed(0, 1));
  EXPECT_EQ(relation->ValueString(0, 0), "*");
}

TEST(RelationTest, UnicodeStarAccepted) {
  auto relation = RelationFromRows(
      MedicalSchema(), {{"★", "Asian", "30", "BC", "x", "Flu"}});
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE(relation->IsSuppressed(0, 0));
}

TEST(RelationTest, ArityMismatchRejected) {
  Relation r(MedicalSchema());
  EXPECT_FALSE(r.AppendRowStrings({"too", "short"}).ok());
}

// Derived relations share dictionaries until one of them interns a new
// value: the interning relation copies the dictionary first, so the
// source never sees the value, and codes below the source's size keep
// their meaning in both.
TEST(RelationTest, EmptyLikeSharesDictionaries) {
  Relation r = MedicalRelation();
  const size_t source_size = r.dictionary(1).size();
  std::vector<std::string> source_values;
  for (size_t code = 0; code < source_size; ++code) {
    source_values.push_back(
        r.dictionary(1).ValueOf(static_cast<ValueCode>(code)));
  }

  Relation empty = r.EmptyLike();
  EXPECT_EQ(empty.NumRows(), 0u);
  EXPECT_EQ(&empty.dictionary(1), &r.dictionary(1));
  // A value the shared dictionary already holds resolves without a copy.
  EXPECT_EQ(empty.Encode(1, "Asian"), *r.FindCode(1, "Asian"));
  EXPECT_EQ(&empty.dictionary(1), &r.dictionary(1));

  // A new value lands in the derived relation's own copy only.
  ValueCode code = empty.Encode(1, "Martian");
  EXPECT_EQ(static_cast<size_t>(code), source_size);
  EXPECT_EQ(r.dictionary(1).size(), source_size);
  EXPECT_FALSE(r.FindCode(1, "Martian").has_value());
  EXPECT_NE(&empty.dictionary(1), &r.dictionary(1));
  for (size_t c = 0; c < source_size; ++c) {
    const auto value_code = static_cast<ValueCode>(c);
    EXPECT_EQ(r.dictionary(1).ValueOf(value_code), source_values[c]);
    EXPECT_EQ(empty.dictionary(1).ValueOf(value_code), source_values[c]);
  }

  // Each is now the sole owner of its dictionary and interns in place.
  const Dictionary* owned = &empty.dictionary(1);
  empty.Encode(1, "Venusian");
  EXPECT_EQ(&empty.dictionary(1), owned);
  EXPECT_EQ(empty.dictionary(1).size(), source_size + 2);
  const Dictionary* source = &r.dictionary(1);
  r.Encode(1, "Plutonian");
  EXPECT_EQ(&r.dictionary(1), source);
  EXPECT_FALSE(empty.FindCode(1, "Plutonian").has_value());
}

TEST(RelationTest, SelectRowsPreservesValues) {
  Relation r = MedicalRelation();
  std::vector<RowId> pick = {7, 8, 9};
  Relation subset = r.SelectRows(pick);
  ASSERT_EQ(subset.NumRows(), 3u);
  EXPECT_EQ(subset.ValueString(0, 1), "Asian");
  EXPECT_EQ(subset.ValueString(2, 5), "Migraine");
}

TEST(RelationTest, CopyIsIndependent) {
  Relation r = MedicalRelation();
  Relation copy = r;
  copy.Set(0, 0, kSuppressed);
  EXPECT_TRUE(copy.IsSuppressed(0, 0));
  EXPECT_FALSE(r.IsSuppressed(0, 0));
}

/// A `rows`-row relation over the Medical schema whose cell (r, c) holds
/// the code r * 8 + c, so every cell is distinct. Codes stand alone here:
/// copies compare codes, never dictionary values.
Relation NumberedRelation(size_t rows) {
  Relation relation(MedicalSchema());
  const size_t stride = relation.NumAttributes();
  std::vector<ValueCode> codes(rows * stride);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<ValueCode>(i / stride * 8 + i % stride);
  }
  relation.AppendRows(codes);
  return relation;
}

/// Expects row i of `actual` to hold the codes of row source_rows[i] of
/// `source`, cell for cell.
void ExpectRows(const Relation& actual, const Relation& source,
                const std::vector<RowId>& source_rows) {
  ASSERT_EQ(actual.NumRows(), source_rows.size());
  ASSERT_EQ(actual.NumAttributes(), source.NumAttributes());
  for (size_t i = 0; i < source_rows.size(); ++i) {
    const auto got = actual.Row(static_cast<RowId>(i));
    const auto want = source.Row(source_rows[i]);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "row " << i;
  }
}

/// Rows per parallel copy chunk of a Medical-schema relation.
size_t CopyChunkRows() {
  return Relation::kCopyChunkCells / MedicalSchema()->NumAttributes();
}

// Copies and gathers above one chunk run on the pool; whatever the
// width, they must hold exactly the cells a one-row-at-a-time copy would,
// including 0 and 1 rows and row counts on either side of a chunk
// boundary.
TEST(RelationTest, ParallelCopiesMatchTheSequentialCellsAtEveryWidth) {
  const size_t chunk = CopyChunkRows();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    for (size_t rows : {size_t{0}, size_t{1}, chunk - 1, chunk, chunk + 1,
                        3 * chunk + 2}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " rows=" + std::to_string(rows));
      const Relation source = NumberedRelation(rows);
      std::vector<RowId> all(rows);
      for (size_t i = 0; i < rows; ++i) all[i] = static_cast<RowId>(i);

      const Relation copy = source;
      ExpectRows(copy, source, all);

      Relation assigned = NumberedRelation(7);
      assigned = source;
      ExpectRows(assigned, source, all);
      const Relation& alias = assigned;
      assigned = alias;  // self-assignment keeps every cell
      ExpectRows(assigned, source, all);

      // An ascending run over the upper half, then the lower half
      // backwards: long block copies and single-row copies in one gather.
      std::vector<RowId> pick;
      for (size_t i = rows / 2; i < rows; ++i) pick.push_back(all[i]);
      for (size_t i = rows / 2; i > 0; --i) pick.push_back(all[i - 1]);
      ExpectRows(source.SelectRows(pick), source, pick);
    }
  }
  SetParallelThreads(1);
}

TEST(RelationTest, SelectRowsSpareRowsAppendWithoutMovingTheRows) {
  SetParallelThreads(8);
  const size_t rows = 2 * CopyChunkRows() + 5;
  const Relation source = NumberedRelation(rows);
  std::vector<RowId> pick(rows);
  for (size_t i = 0; i < rows; ++i) pick[i] = static_cast<RowId>(rows - 1 - i);
  constexpr size_t kSpare = 37;
  Relation selected = source.SelectRows(pick, kSpare);
  ExpectRows(selected, source, pick);
  const ValueCode* first_row = selected.Row(0).data();
  const std::vector<ValueCode> extra(selected.NumAttributes(), 3);
  for (size_t i = 0; i < kSpare; ++i) selected.AppendRow(extra);
  EXPECT_EQ(selected.Row(0).data(), first_row);
  ASSERT_EQ(selected.NumRows(), rows + kSpare);
  EXPECT_EQ(selected.At(static_cast<RowId>(rows + kSpare - 1), 0), 3);
  SetParallelThreads(1);
}

// The range check runs inside each parallel chunk and must still abort,
// whichever chunk holds the stale id.
TEST(RelationDeathTest, SelectRowsRejectsAnOutOfRangeIdAtEveryWidth) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const size_t rows = 3 * CopyChunkRows();
  const Relation source = NumberedRelation(rows);
  std::vector<RowId> late(rows);
  for (size_t i = 0; i < rows; ++i) late[i] = static_cast<RowId>(i);
  late.back() = static_cast<RowId>(rows);
  const std::vector<RowId> lone = {static_cast<RowId>(rows + 5)};
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SetParallelThreads(threads);
    EXPECT_DEATH((void)source.SelectRows(late),
                 "SelectRows: row id out of range");
    EXPECT_DEATH((void)source.SelectRows(lone),
                 "SelectRows: row id out of range");
  }
  SetParallelThreads(1);
}

// ------------------------------------------------------------- QI groups

TEST(QiGroupsTest, GroupsByQiProjection) {
  Relation r = MedicalRelation();
  // Table 1 has all-distinct QI projections (ages differ).
  QiGroups groups = ComputeQiGroups(r);
  EXPECT_EQ(groups.groups.size(), 10u);
  EXPECT_EQ(groups.MinGroupSize(), 1u);
}

TEST(QiGroupsTest, PaperTable2IsThreeAnonymous) {
  // Table 2: the paper's k = 3 anonymization of Table 1.
  auto r = RelationFromRows(
      MedicalSchema(),
      {
          {"*", "Caucasian", "*", "AB", "Calgary", "Hypertension"},
          {"*", "Caucasian", "*", "AB", "Calgary", "Tuberculosis"},
          {"*", "Caucasian", "*", "AB", "Calgary", "Osteoarthritis"},
          {"Male", "*", "*", "*", "*", "Migraine"},
          {"Male", "*", "*", "*", "*", "Hypertension"},
          {"Male", "*", "*", "*", "*", "Seizure"},
          {"Male", "*", "*", "*", "*", "Hypertension"},
          {"Female", "Asian", "*", "*", "*", "Seizure"},
          {"Female", "Asian", "*", "*", "*", "Influenza"},
          {"Female", "Asian", "*", "*", "*", "Migraine"},
      });
  ASSERT_TRUE(r.ok());
  QiGroups groups = ComputeQiGroups(*r);
  EXPECT_EQ(groups.groups.size(), 3u);
  EXPECT_TRUE(IsKAnonymous(*r, 3));
  EXPECT_FALSE(IsKAnonymous(*r, 4));
}

TEST(QiGroupsTest, SubsetGrouping) {
  Relation r = MedicalRelation();
  std::vector<RowId> rows = {0, 1};
  QiGroups groups = ComputeQiGroups(r, rows);
  EXPECT_EQ(groups.groups.size(), 2u);  // ages differ
}

TEST(QiGroupsTest, EmptyRelationIsKAnonymous) {
  Relation r(MedicalSchema());
  EXPECT_TRUE(IsKAnonymous(r, 5));
  EXPECT_EQ(ComputeQiGroups(r).MinGroupSize(), 0u);
}

TEST(QiGroupsTest, SuppressedCellsMatchOnlyEachOther) {
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"*", "Asian", "30", "BC", "V", "Flu"},
                                {"*", "Asian", "30", "BC", "V", "Flu"},
                                {"Male", "Asian", "30", "BC", "V", "Flu"},
                            });
  ASSERT_TRUE(r.ok());
  QiGroups groups = ComputeQiGroups(*r);
  EXPECT_EQ(groups.groups.size(), 2u);
}

TEST(QiGroupsTest, DistinctQiProjections) {
  Relation r = MedicalRelation();
  EXPECT_EQ(CountDistinctQiProjections(r), 10u);
}

}  // namespace
}  // namespace diva
