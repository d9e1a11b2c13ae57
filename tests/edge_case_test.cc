// Edge cases across modules that the per-module suites do not cover:
// degenerate domains, custom delimiters, empty inputs, boundary bounds.

#include <gtest/gtest.h>

#include <sstream>

#include "anon/distance.h"
#include "anon/suppress.h"
#include "constraint/generator.h"
#include "core/diva.h"
#include "core/report_json.h"
#include "metrics/metrics.h"
#include "relation/csv.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalRelation;
using testing::MedicalSchema;
using testing::MustParse;

TEST(EdgeCaseTest, DegenerateNumericRangeContributesZero) {
  // All AGE values equal: range is 0, numeric distance must not divide
  // by zero and equal values contribute nothing.
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "Asian", "30", "BC", "V", "x"},
                                {"M", "Asian", "30", "BC", "V", "x"},
                            });
  ASSERT_TRUE(r.ok());
  DistanceMetric metric(*r);
  EXPECT_DOUBLE_EQ(metric.Distance(0, 1), 1.0);  // only GEN differs
}

TEST(EdgeCaseTest, CsvCustomDelimiter) {
  Relation original = MedicalRelation();
  CsvOptions options;
  options.delimiter = ';';
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(original, out, options).ok());
  EXPECT_NE(out.str().find(';'), std::string::npos);
  std::istringstream in(out.str());
  auto read = ReadCsv(in, MedicalSchema(), options);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->NumRows(), original.NumRows());
  EXPECT_EQ(read->ValueString(4, 1), "African");
}

TEST(EdgeCaseTest, CsvFieldContainingCustomDelimiter) {
  auto r = RelationFromRows(MedicalSchema(),
                            {{"a;b", "Asian", "30", "BC", "V", "x"}});
  ASSERT_TRUE(r.ok());
  CsvOptions options;
  options.delimiter = ';';
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(*r, out, options).ok());
  std::istringstream in(out.str());
  auto read = ReadCsv(in, MedicalSchema(), options);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->ValueString(0, 0), "a;b");
}

TEST(EdgeCaseTest, ConstraintWithEqualBounds) {
  Relation r = MedicalRelation();
  auto exact = MustParse(*MedicalSchema(), "ETH[Asian] in [3,3]");
  EXPECT_TRUE(testing::NaiveSatisfied(r, exact));
  auto off_by_one = MustParse(*MedicalSchema(), "ETH[Asian] in [4,4]");
  EXPECT_FALSE(testing::NaiveSatisfied(r, off_by_one));
}

TEST(EdgeCaseTest, ZeroZeroConstraintForbidsValue) {
  // (A[a], 0, 0): the value must not appear at all. DIVA must suppress
  // every occurrence via Integrate.
  Relation r = MedicalRelation();
  ConstraintSet constraints = {
      MustParse(*MedicalSchema(), "ETH[African] in [0,0]")};
  DivaOptions options;
  options.k = 2;
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(testing::NaiveTargets(result->relation, constraints[0]).size(), 0u);
  EXPECT_TRUE(IsKAnonymous(result->relation, 2));
}

TEST(EdgeCaseTest, SuppressEmptyClusteringIsNoOp) {
  Relation r = MedicalRelation();
  Relation copy = r;
  SuppressClustersInPlace(&copy, {});
  for (RowId row = 0; row < r.NumRows(); ++row) {
    for (size_t col = 0; col < r.NumAttributes(); ++col) {
      EXPECT_EQ(copy.At(row, col), r.At(row, col));
    }
  }
}

TEST(EdgeCaseTest, KEqualsRelationSize) {
  Relation r = MedicalRelation();
  DivaOptions options;
  options.k = r.NumRows();
  auto result = RunDiva(r, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsKAnonymous(result->relation, r.NumRows()));
  // One group of everything: all non-unanimous QI columns starred.
  QiGroups groups = ComputeQiGroups(result->relation);
  EXPECT_EQ(groups.groups.size(), 1u);
}

TEST(EdgeCaseTest, EmptyRelationThroughDiva) {
  Relation empty(MedicalSchema());
  DivaOptions options;
  options.k = 3;
  auto result = RunDiva(empty, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation.NumRows(), 0u);
}

TEST(EdgeCaseTest, AllRowsIdentical) {
  std::vector<std::vector<std::string>> rows(
      12, {"F", "Asian", "30", "BC", "V", "Flu"});
  auto r = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(r.ok());
  ConstraintSet constraints = {
      MustParse(*MedicalSchema(), "ETH[Asian] in [12,12]")};
  DivaOptions options;
  options.k = 4;
  auto result = RunDiva(*r, constraints, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsKAnonymous(result->relation, 4));
  EXPECT_TRUE(SatisfiesAll(result->relation, constraints));
  EXPECT_EQ(CountStars(result->relation), 0u);  // nothing to suppress
}

TEST(EdgeCaseTest, ZeroConstraintRunIsPureResidual) {
  // No constraints: the shard plan has zero shards and every row is
  // residual — the whole relation flows to the baseline phase, and the
  // shard flag has nothing to change.
  Relation r = MedicalRelation();
  std::string bytes_without;
  for (bool shard : {false, true}) {
    DivaOptions options;
    options.k = 2;
    options.shard = shard;
    auto result = RunDiva(r, {}, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->report.shards, 0u);
    EXPECT_EQ(result->report.residual_rows, r.NumRows());
    EXPECT_TRUE(IsKAnonymous(result->relation, 2));
    std::ostringstream out;
    ASSERT_TRUE(WriteCsv(result->relation, out).ok());
    if (!shard) {
      bytes_without = out.str();
    } else {
      EXPECT_EQ(out.str(), bytes_without);
    }
  }
}

TEST(EdgeCaseTest, EveryRowViolatingSigmaSuppressesAcrossAllShards) {
  // Three forbid-constraints cover every ETH value: every row violates
  // Sigma, the plan has three components and an empty residual, and the
  // pipeline must suppress every occurrence in every shard — in both
  // execution modes, byte for byte.
  Relation r = MedicalRelation();
  ConstraintSet constraints = {
      MustParse(*MedicalSchema(), "ETH[Caucasian] in [0,0]"),
      MustParse(*MedicalSchema(), "ETH[African] in [0,0]"),
      MustParse(*MedicalSchema(), "ETH[Asian] in [0,0]"),
  };
  std::string bytes_without;
  for (bool shard : {false, true}) {
    DivaOptions options;
    options.k = 2;
    options.shard = shard;
    auto result = RunDiva(r, constraints, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->report.shards, 3u);
    EXPECT_EQ(result->report.residual_rows, 0u);
    for (const DiversityConstraint& constraint : constraints) {
      EXPECT_EQ(testing::NaiveTargets(result->relation, constraint).size(), 0u);
    }
    EXPECT_TRUE(IsKAnonymous(result->relation, 2));
    std::ostringstream out;
    ASSERT_TRUE(WriteCsv(result->relation, out).ok());
    if (!shard) {
      bytes_without = out.str();
    } else {
      EXPECT_EQ(out.str(), bytes_without);
    }
  }
}

TEST(EdgeCaseTest, DiscernibilityOverflowSafety) {
  // 100k identical rows: disc = N^2 = 1e10 exceeds 32 bits; the metric
  // must not overflow.
  auto schema = Schema::Make({
      {"A", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
  });
  ASSERT_TRUE(schema.ok());
  Relation r(*schema);
  ValueCode code = r.Encode(0, "x");
  std::vector<ValueCode> row = {code};
  for (int i = 0; i < 100000; ++i) r.AppendRow(row);
  EXPECT_EQ(Discernibility(r, 2), 10000000000ULL);
}

TEST(EdgeCaseTest, ReportJsonWellFormed) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = {
      MustParse(*MedicalSchema(), "ETH[Asian] in [2,5]")};
  DivaOptions options;
  options.k = 2;
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok());
  std::string json = ReportToJson(result->report);
  // Structural sanity without a JSON parser dependency.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"clustering_complete\":true"), std::string::npos);
  EXPECT_NE(json.find("\"total_constraints\":1"), std::string::npos);
  EXPECT_NE(json.find("\"unsatisfied\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"timings\""), std::string::npos);
  // Balanced braces/brackets.
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(EdgeCaseTest, GeneratorOnTinyRelation) {
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "Asian", "30", "BC", "V", "x"},
                                {"F", "Asian", "31", "BC", "V", "y"},
                            });
  ASSERT_TRUE(r.ok());
  ConstraintGenOptions gen;
  gen.count = 1;
  gen.min_support = 2;
  auto constraints = GenerateConstraints(*r, gen);
  ASSERT_TRUE(constraints.ok()) << constraints.status().ToString();
  EXPECT_EQ(constraints->size(), 1u);
}

}  // namespace
}  // namespace diva
