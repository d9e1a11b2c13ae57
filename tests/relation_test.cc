#include <gtest/gtest.h>

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
