#include <gtest/gtest.h>

#include "constraint/conflict.h"
#include "constraint/generator.h"
#include "datagen/synthetic.h"
#include "tests/test_util.h"

namespace diva {
namespace {

/// A 2000-row synthetic relation with a few correlated categorical QI
/// attributes — enough structure for conflict targeting.
Relation GeneratorFixture(uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.num_rows = 2000;
  spec.seed = seed;
  spec.num_latent_classes = 12;
  AttributeSpec a;
  a.name = "A";
  a.domain_size = 6;
  a.distribution = ValueDistribution::kZipfian;
  a.zipf_skew = 1.0;
  a.correlation = 0.4;
  AttributeSpec b = a;
  b.name = "B";
  b.domain_size = 8;
  AttributeSpec c = a;
  c.name = "C";
  c.domain_size = 5;
  c.correlation = 0.5;
  AttributeSpec s;
  s.name = "S";
  s.role = AttributeRole::kSensitive;
  s.domain_size = 4;
  spec.attributes = {a, b, c, s};
  auto relation = GenerateSynthetic(spec);
  DIVA_CHECK(relation.ok());
  return std::move(relation).value();
}

TEST(GeneratorTest, ProducesRequestedCount) {
  Relation r = GeneratorFixture();
  ConstraintGenOptions options;
  options.count = 10;
  auto constraints = GenerateConstraints(r, options);
  ASSERT_TRUE(constraints.ok()) << constraints.status().ToString();
  EXPECT_EQ(constraints->size(), 10u);
}

TEST(GeneratorTest, ZeroCountIsEmpty) {
  Relation r = GeneratorFixture();
  ConstraintGenOptions options;
  options.count = 0;
  auto constraints = GenerateConstraints(r, options);
  ASSERT_TRUE(constraints.ok());
  EXPECT_TRUE(constraints->empty());
}

TEST(GeneratorTest, ProportionalConstraintsAreSatisfiedByInput) {
  Relation r = GeneratorFixture();
  ConstraintGenOptions options;
  options.kind = ConstraintClass::kProportional;
  options.count = 12;
  options.slack = 0.25;
  auto constraints = GenerateConstraints(r, options);
  ASSERT_TRUE(constraints.ok());
  for (const auto& constraint : *constraints) {
    EXPECT_TRUE(testing::NaiveSatisfied(r, constraint))
        << constraint.ToString();
  }
}

TEST(GeneratorTest, MinimumFrequencyHasOpenUpperBound) {
  Relation r = GeneratorFixture();
  ConstraintGenOptions options;
  options.kind = ConstraintClass::kMinimumFrequency;
  options.count = 6;
  auto constraints = GenerateConstraints(r, options);
  ASSERT_TRUE(constraints.ok());
  for (const auto& constraint : *constraints) {
    EXPECT_EQ(constraint.upper(), r.NumRows());
    EXPECT_TRUE(testing::NaiveSatisfied(r, constraint))
        << constraint.ToString();
  }
}

TEST(GeneratorTest, AverageClassUsesMeanAnchor) {
  Relation r = GeneratorFixture();
  ConstraintGenOptions options;
  options.kind = ConstraintClass::kAverage;
  options.count = 6;
  auto constraints = GenerateConstraints(r, options);
  ASSERT_TRUE(constraints.ok());
  // All average-class constraints share the same bounds (one anchor).
  for (const auto& constraint : *constraints) {
    EXPECT_EQ(constraint.lower(), (*constraints)[0].lower());
    EXPECT_EQ(constraint.upper(), (*constraints)[0].upper());
  }
}

TEST(GeneratorTest, RespectsMinSupport) {
  Relation r = GeneratorFixture();
  ConstraintGenOptions options;
  options.count = 8;
  options.min_support = 20;
  auto constraints = GenerateConstraints(r, options);
  ASSERT_TRUE(constraints.ok());
  for (const auto& constraint : *constraints) {
    EXPECT_GE(testing::NaiveTargets(r, constraint).size(), 20u)
        << constraint.ToString();
  }
}

TEST(GeneratorTest, DeterministicInSeed) {
  Relation r = GeneratorFixture();
  ConstraintGenOptions options;
  options.count = 8;
  options.seed = 99;
  auto a = GenerateConstraints(r, options);
  auto b = GenerateConstraints(r, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].ToString(), (*b)[i].ToString());
  }
}

TEST(GeneratorTest, FailsWhenPoolTooSmall) {
  Relation r = GeneratorFixture();
  ConstraintGenOptions options;
  options.count = 500;  // far beyond 6+8+5 single-attribute candidates
  auto constraints = GenerateConstraints(r, options);
  EXPECT_FALSE(constraints.ok());
}

TEST(GeneratorTest, InvalidSlackRejected) {
  Relation r = GeneratorFixture();
  ConstraintGenOptions options;
  options.slack = 1.5;
  EXPECT_FALSE(GenerateConstraints(r, options).ok());
  options.slack = -0.1;
  EXPECT_FALSE(GenerateConstraints(r, options).ok());
}

class ConflictTargetingTest : public ::testing::TestWithParam<double> {};

TEST_P(ConflictTargetingTest, HitsRequestedConflictRate) {
  Relation r = GeneratorFixture();
  double target = GetParam();
  ConstraintGenOptions options;
  options.count = 8;
  options.target_conflict = target;
  options.min_support = 8;
  auto constraints = GenerateConstraints(r, options);
  ASSERT_TRUE(constraints.ok()) << constraints.status().ToString();
  double achieved = ConflictRate(r, *constraints);
  EXPECT_NEAR(achieved, target, 0.25)
      << "requested cf=" << target << " achieved cf=" << achieved;
}

INSTANTIATE_TEST_SUITE_P(ConflictSweep, ConflictTargetingTest,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8));

}  // namespace
}  // namespace diva
