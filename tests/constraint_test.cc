#include <gtest/gtest.h>

#include "constraint/constraint_index.h"
#include "constraint/diversity_constraint.h"
#include "constraint/parser.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalConstraints;
using testing::MedicalRelation;
using testing::MedicalSchema;
using testing::MustParse;

// Single-constraint views of the set-wide answers.
size_t Count(const Relation& r, const DiversityConstraint& constraint) {
  return CountAllOccurrences(r, {constraint})[0];
}
bool Satisfied(const Relation& r, const DiversityConstraint& constraint) {
  return SatisfiesAll(r, {constraint});
}
std::vector<RowId> Targets(const Relation& r,
                           const DiversityConstraint& constraint) {
  const ConstraintSet set = {constraint};
  return ConstraintIndex(r, set).Targets()[0];
}

TEST(ConstraintTest, MakeValidatesAttributes) {
  auto schema = MedicalSchema();
  EXPECT_FALSE(DiversityConstraint::Make(*schema, {}, {}, 0, 1).ok());
  EXPECT_FALSE(
      DiversityConstraint::Make(*schema, {"NOPE"}, {"x"}, 0, 1).ok());
  EXPECT_FALSE(
      DiversityConstraint::Make(*schema, {"ETH"}, {"a", "b"}, 0, 1).ok());
  EXPECT_FALSE(
      DiversityConstraint::Make(*schema, {"ETH", "ETH"}, {"a", "b"}, 0, 1)
          .ok());
  EXPECT_FALSE(DiversityConstraint::Make(*schema, {"ETH"}, {"a"}, 3, 2).ok());
  EXPECT_TRUE(DiversityConstraint::Make(*schema, {"ETH"}, {"a"}, 2, 2).ok());
}

TEST(ConstraintTest, CountAndSatisfactionOnPaperTable1) {
  Relation r = MedicalRelation();
  auto schema = MedicalSchema();
  // sigma_1 = (ETH[Asian], 2, 5): Table 1 has 3 Asians -> satisfied.
  auto s1 = MustParse(*schema, "ETH[Asian] in [2,5]");
  EXPECT_EQ(Count(r, s1), 3u);
  EXPECT_TRUE(Satisfied(r, s1));
  // 4 Vancouver tuples.
  auto s3 = MustParse(*schema, "CTY[Vancouver] in [2,4]");
  EXPECT_EQ(Count(r, s3), 4u);
  EXPECT_TRUE(Satisfied(r, s3));
  // Too-tight upper bound fails.
  auto tight = MustParse(*schema, "CTY[Vancouver] in [1,3]");
  EXPECT_FALSE(Satisfied(r, tight));
  // Unmet lower bound fails.
  auto high = MustParse(*schema, "ETH[Asian] in [4,9]");
  EXPECT_FALSE(Satisfied(r, high));
}

TEST(ConstraintTest, TargetTuplesMatchPaperExample) {
  Relation r = MedicalRelation();
  auto schema = MedicalSchema();
  // I_s1 = {t8, t9, t10} -> rows {7, 8, 9}.
  EXPECT_EQ(Targets(r, MustParse(*schema, "ETH[Asian] in [2,5]")),
            (std::vector<RowId>{7, 8, 9}));
  // I_s2 = {t5, t6} -> rows {4, 5}.
  EXPECT_EQ(Targets(r, MustParse(*schema, "ETH[African] in [1,3]")),
            (std::vector<RowId>{4, 5}));
  // I_s3 = {t6, t7, t8, t10} -> rows {5, 6, 7, 9}.
  EXPECT_EQ(Targets(r, MustParse(*schema, "CTY[Vancouver] in [2,4]")),
            (std::vector<RowId>{5, 6, 7, 9}));
}

TEST(ConstraintTest, UnknownValueCountsZero) {
  Relation r = MedicalRelation();
  auto constraint = MustParse(*MedicalSchema(), "ETH[Martian] in [0,5]");
  EXPECT_EQ(Count(r, constraint), 0u);
  EXPECT_TRUE(Satisfied(r, constraint));  // lower bound 0
  EXPECT_TRUE(Targets(r, constraint).empty());
}

TEST(ConstraintTest, MultiAttributeTarget) {
  Relation r = MedicalRelation();
  auto constraint =
      MustParse(*MedicalSchema(), "GEN,ETH[Male,African] in [1,3]");
  EXPECT_EQ(Count(r, constraint), 2u);  // t5, t6
  EXPECT_EQ(Targets(r, constraint), (std::vector<RowId>{4, 5}));
  EXPECT_TRUE(Satisfied(r, constraint));
}

TEST(ConstraintTest, SuppressedCellsNeverMatch) {
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"Female", "*", "30", "BC", "V", "Flu"},
                                {"Female", "Asian", "30", "BC", "V", "Flu"},
                            });
  ASSERT_TRUE(r.ok());
  auto constraint = MustParse(*MedicalSchema(), "ETH[Asian] in [0,5]");
  EXPECT_EQ(Count(*r, constraint), 1u);
}

TEST(ConstraintTest, SatisfiesAllAndViolated) {
  Relation r = MedicalRelation();
  auto schema = MedicalSchema();
  ConstraintSet constraints = MedicalConstraints(*schema);
  EXPECT_TRUE(SatisfiesAll(r, constraints));
  EXPECT_TRUE(ViolatedConstraints(r, constraints).empty());

  constraints.push_back(MustParse(*schema, "ETH[Asian] in [4,5]"));
  EXPECT_FALSE(SatisfiesAll(r, constraints));
  EXPECT_EQ(ViolatedConstraints(r, constraints),
            (std::vector<size_t>{3}));
}

TEST(ConstraintTest, ToStringRoundTrip) {
  auto schema = MedicalSchema();
  auto original = MustParse(*schema, "GEN,ETH[Male,African] in [1,3]");
  auto reparsed = MustParse(*schema, original.ToString());
  EXPECT_EQ(original, reparsed);
  EXPECT_EQ(original.ToString(), "GEN,ETH[Male,African] in [1,3]");
}

// ------------------------------------------------------------- Parser

TEST(ParserTest, ParsesSingleAttribute) {
  auto constraint = MustParse(*MedicalSchema(), "  ETH [ Asian ] IN [ 2 , 5 ]");
  EXPECT_EQ(constraint.attribute_names(),
            (std::vector<std::string>{"ETH"}));
  EXPECT_EQ(constraint.values(), (std::vector<std::string>{"Asian"}));
  EXPECT_EQ(constraint.lower(), 2u);
  EXPECT_EQ(constraint.upper(), 5u);
}

TEST(ParserTest, RejectsMalformed) {
  auto schema = MedicalSchema();
  EXPECT_FALSE(ParseConstraint(*schema, "ETH Asian in [2,5]").ok());
  EXPECT_FALSE(ParseConstraint(*schema, "ETH[Asian in [2,5]").ok());
  EXPECT_FALSE(ParseConstraint(*schema, "ETH[Asian] [2,5]").ok());
  EXPECT_FALSE(ParseConstraint(*schema, "ETH[Asian] in 2,5").ok());
  EXPECT_FALSE(ParseConstraint(*schema, "ETH[Asian] in [2]").ok());
  EXPECT_FALSE(ParseConstraint(*schema, "ETH[Asian] in [a,b]").ok());
  EXPECT_FALSE(ParseConstraint(*schema, "ETH[Asian] in [-1,5]").ok());
  EXPECT_FALSE(ParseConstraint(*schema, "ETH[Asian] in [5,2]").ok());
  EXPECT_FALSE(ParseConstraint(*schema, "BOGUS[Asian] in [2,5]").ok());
}

TEST(ParserTest, ParsesSetWithCommentsAndBlanks) {
  auto constraints = ParseConstraintSet(*MedicalSchema(),
                                        "# paper example\n"
                                        "\n"
                                        "ETH[Asian] in [2,5]\n"
                                        "  # another comment\n"
                                        "CTY[Vancouver] in [2,4]\n");
  ASSERT_TRUE(constraints.ok());
  EXPECT_EQ(constraints->size(), 2u);
}

TEST(ParserTest, SetReportsLineNumber) {
  auto constraints = ParseConstraintSet(*MedicalSchema(),
                                        "ETH[Asian] in [2,5]\n"
                                        "garbage here\n");
  ASSERT_FALSE(constraints.ok());
  EXPECT_NE(constraints.status().message().find("line 2"),
            std::string::npos);
}

}  // namespace
}  // namespace diva
