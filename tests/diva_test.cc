#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/parallel.h"
#include "constraint/generator.h"
#include "core/diva.h"
#include "datagen/profiles.h"
#include "datagen/synthetic.h"
#include "metrics/metrics.h"
#include "relation/csv.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"
#include "verify/auditor.h"

namespace diva {
namespace {

using testing::MedicalConstraints;
using testing::MedicalRelation;
using testing::MedicalSchema;
using testing::MustParse;

// ------------------------------------------------ paper running example

class DivaPaperExampleTest
    : public ::testing::TestWithParam<SelectionStrategy> {};

TEST_P(DivaPaperExampleTest, Table1WithK2SatisfiesSigma) {
  // Example 3.1 / Table 3: R from Table 1, k = 2,
  // Sigma = {(ETH[Asian],2,5), (ETH[African],1,3), (CTY[Vancouver],2,4)}.
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());

  DivaOptions options;
  options.k = 2;
  options.strategy = GetParam();
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const Relation& out = result->relation;
  EXPECT_EQ(out.NumRows(), r.NumRows());
  EXPECT_TRUE(IsKAnonymous(out, 2));
  EXPECT_TRUE(SatisfiesAll(out, constraints));
  EXPECT_TRUE(result->report.clustering_complete);
  EXPECT_TRUE(result->report.unsatisfied.empty());

  // Suppression-only: unsuppressed cells match the input.
  for (RowId row = 0; row < out.NumRows(); ++row) {
    for (size_t col = 0; col < out.NumAttributes(); ++col) {
      if (!out.IsSuppressed(row, col)) {
        EXPECT_EQ(out.At(row, col), r.At(row, col));
      }
    }
  }
  // Sensitive attribute untouched (no sensitive-target constraints here).
  for (RowId row = 0; row < out.NumRows(); ++row) {
    EXPECT_EQ(out.At(row, 5), r.At(row, 5));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DivaPaperExampleTest,
    ::testing::Values(SelectionStrategy::kBasic, SelectionStrategy::kMinChoice,
                      SelectionStrategy::kMaxFanOut),
    [](const ::testing::TestParamInfo<SelectionStrategy>& info) {
      return SelectionStrategyToString(info.param);
    });

// ------------------------------------------------ basic API behaviour

TEST(DivaTest, KZeroRejected) {
  Relation r = MedicalRelation();
  DivaOptions options;
  options.k = 0;
  EXPECT_FALSE(RunDiva(r, {}, options).ok());
}

TEST(DivaTest, FewerRowsThanKInfeasible) {
  Relation r = MedicalRelation();
  DivaOptions options;
  options.k = 11;
  auto result = RunDiva(r, {}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(DivaTest, EmptyConstraintsDegeneratesToBaseline) {
  Relation r = MedicalRelation();
  DivaOptions options;
  options.k = 3;
  auto result = RunDiva(r, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsKAnonymous(result->relation, 3));
  EXPECT_TRUE(result->report.clustering_complete);
  EXPECT_EQ(result->report.sigma_rows, 0u);
}

TEST(DivaTest, StrictModeFailsOnImpossibleConstraint) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = {
      MustParse(*MedicalSchema(), "ETH[Asian] in [5,9]")};  // only 3 exist
  DivaOptions options;
  options.k = 2;
  options.strict = true;
  auto result = RunDiva(r, constraints, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(DivaTest, NonStrictModeReportsUnsatisfied) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = {
      MustParse(*MedicalSchema(), "ETH[Asian] in [5,9]")};
  DivaOptions options;
  options.k = 2;
  options.strict = false;
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->report.clustering_complete);
  EXPECT_EQ(result->report.unsatisfied, (std::vector<size_t>{0}));
  EXPECT_TRUE(IsKAnonymous(result->relation, 2));  // anonymity still holds
}

TEST(DivaTest, UpperBoundOnlyConstraintTriggersIntegrate) {
  // All 10 tuples share no constraint lower bound, but CTY[Vancouver]
  // occurrences must stay <= 1. The baseline would typically preserve
  // Vancouver in some group; Integrate must repair it.
  Relation r = MedicalRelation();
  ConstraintSet constraints = {
      MustParse(*MedicalSchema(), "CTY[Vancouver] in [0,1]")};
  DivaOptions options;
  options.k = 2;
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SatisfiesAll(result->relation, constraints));
  EXPECT_TRUE(IsKAnonymous(result->relation, 2));
}

TEST(DivaTest, ReportTimingsAndCountsPopulated) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok());
  const DivaReport& report = result->report;
  EXPECT_EQ(report.total_constraints, 3u);
  EXPECT_EQ(report.colored_constraints, 3u);
  EXPECT_GT(report.coloring_steps, 0u);
  EXPECT_GE(report.sigma_rows, 4u);  // at least s1's 2 + s2's 2 tuples
  EXPECT_GE(report.total_seconds, 0.0);
  EXPECT_GE(report.clustering_seconds, 0.0);
}

TEST(DivaTest, DeterministicForSeed) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  options.seed = 99;
  auto a = RunDiva(r, constraints, options);
  auto b = RunDiva(r, constraints, options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (RowId row = 0; row < r.NumRows(); ++row) {
    for (size_t col = 0; col < r.NumAttributes(); ++col) {
      EXPECT_EQ(a->relation.At(row, col), b->relation.At(row, col));
    }
  }
}

TEST(DivaTest, AllBaselinesWork) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  for (BaselineAlgorithm baseline :
       {BaselineAlgorithm::kKMember, BaselineAlgorithm::kOka,
        BaselineAlgorithm::kMondrian}) {
    DivaOptions options;
    options.k = 2;
    options.baseline = baseline;
    auto result = RunDiva(r, constraints, options);
    ASSERT_TRUE(result.ok()) << BaselineAlgorithmToString(baseline);
    EXPECT_TRUE(IsKAnonymous(result->relation, 2))
        << BaselineAlgorithmToString(baseline);
    EXPECT_TRUE(SatisfiesAll(result->relation, constraints))
        << BaselineAlgorithmToString(baseline);
  }
}

// ------------------------------------------------ property sweep

struct SweepCase {
  size_t rows;
  size_t k;
  size_t num_constraints;
  ValueDistribution distribution;
  uint64_t seed;
};

Relation SweepRelation(const SweepCase& param) {
  SyntheticSpec spec;
  spec.num_rows = param.rows;
  spec.seed = param.seed;
  spec.num_latent_classes = 10;
  AttributeSpec a;
  a.name = "A";
  a.domain_size = 6;
  a.distribution = param.distribution;
  a.zipf_skew = 1.0;
  a.correlation = 0.3;
  AttributeSpec b = a;
  b.name = "B";
  b.domain_size = 9;
  AttributeSpec c = a;
  c.name = "C";
  c.domain_size = 4;
  AttributeSpec age;
  age.name = "AGE";
  age.kind = AttributeKind::kNumeric;
  age.domain_size = 50;
  age.numeric_base = 18;
  age.distribution = ValueDistribution::kGaussian;
  AttributeSpec s;
  s.name = "S";
  s.role = AttributeRole::kSensitive;
  s.domain_size = 5;
  spec.attributes = {a, b, c, age, s};
  auto relation = GenerateSynthetic(spec);
  DIVA_CHECK(relation.ok());
  return std::move(relation).value();
}

class DivaPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DivaPropertyTest, OutputIsKAnonymousAndUpperBoundsHold) {
  const SweepCase& param = GetParam();
  Relation r = SweepRelation(param);

  ConstraintGenOptions gen;
  gen.count = param.num_constraints;
  gen.seed = param.seed;
  gen.min_support = param.k;  // clusterable targets
  auto constraints = GenerateConstraints(r, gen);
  ASSERT_TRUE(constraints.ok()) << constraints.status().ToString();

  DivaOptions options;
  options.k = param.k;
  options.seed = param.seed;
  auto result = RunDiva(r, *constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Invariant 1: k-anonymity always holds, success or not.
  EXPECT_TRUE(IsKAnonymous(result->relation, param.k));
  // Invariant 2: upper bounds always hold after Integrate.
  for (const auto& constraint : *constraints) {
    EXPECT_LE(testing::NaiveTargets(result->relation, constraint).size(),
              constraint.upper())
        << constraint.ToString();
  }
  // Invariant 3: when the coloring succeeded, all of Sigma is satisfied.
  if (result->report.clustering_complete) {
    EXPECT_TRUE(SatisfiesAll(result->relation, *constraints));
    EXPECT_TRUE(result->report.unsatisfied.empty());
  }
  // Invariant 4: suppression-only anonymization.
  for (RowId row = 0; row < r.NumRows(); ++row) {
    for (size_t col = 0; col < r.NumAttributes(); ++col) {
      if (!result->relation.IsSuppressed(row, col)) {
        EXPECT_EQ(result->relation.At(row, col), r.At(row, col));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DivaPropertyTest,
    ::testing::Values(
        SweepCase{300, 3, 4, ValueDistribution::kZipfian, 1},
        SweepCase{300, 5, 6, ValueDistribution::kUniform, 2},
        SweepCase{500, 4, 8, ValueDistribution::kGaussian, 3},
        SweepCase{500, 10, 5, ValueDistribution::kZipfian, 4},
        SweepCase{800, 8, 10, ValueDistribution::kUniform, 5},
        SweepCase{1000, 20, 6, ValueDistribution::kZipfian, 6}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "n" + std::to_string(info.param.rows) + "_k" +
             std::to_string(info.param.k) + "_c" +
             std::to_string(info.param.num_constraints) + "_" +
             ValueDistributionToString(info.param.distribution) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(DivaTest, AccuracyBeatsNothingButStaysInUnitInterval) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok());
  double accuracy = OverallAccuracy(result->relation, 2, constraints);
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
  EXPECT_GT(accuracy, 0.2);  // the 10-row example admits a decent solution
}

// ------------------------------------------------ one-component pins

std::string ToCsv(const Relation& relation) {
  std::ostringstream out;
  EXPECT_TRUE(WriteCsv(relation, out).ok());
  return out.str();
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char byte : bytes) hash = (hash ^ byte) * 1099511628211ULL;
  return hash;
}

TEST(DivaOneComponentPinTest, PublishedCsvPerBaselineAtWidthsOneAndFour) {
  // A connected Pop-Syn instance: a one-shard plan, colored with the
  // run's own seeds exactly as one search over the whole relation, then
  // every uncovered row in one baseline call. Pins its published bytes.
  ProfileOptions profile_options;
  profile_options.num_rows = 3000;
  profile_options.seed = 7;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(relation.ok());
  ConstraintGenOptions generator_options;
  generator_options.count = 6;
  generator_options.target_conflict = 0.9;
  generator_options.seed = 7;
  auto constraints = GenerateConstraints(*relation, generator_options);
  ASSERT_TRUE(constraints.ok());

  const std::pair<BaselineAlgorithm, uint64_t> pins[] = {
      {BaselineAlgorithm::kKMember, 0x6e9b112552492d10ULL},
      {BaselineAlgorithm::kOka, 0x3cb08d78e46bb238ULL},
      {BaselineAlgorithm::kMondrian, 0xeecdae70fddd0611ULL},
  };
  for (const auto& [baseline, expected] : pins) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      DivaOptions options;
      options.k = 10;
      options.baseline = baseline;
      options.threads = threads;
      options.audit = true;
      auto result = RunDiva(*relation, *constraints, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->report.shards, 1u);
      EXPECT_GT(relation->NumRows() - result->report.sigma_rows, 10u);
      EXPECT_EQ(Fnv1a(ToCsv(result->relation)), expected)
          << BaselineAlgorithmToString(baseline) << " threads=" << threads;
    }
  }
  SetParallelThreads(1);
}

}  // namespace
}  // namespace diva
