#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <type_traits>

#include "datagen/profiles.h"
#include "datagen/synthetic.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

TEST(DomainSamplerTest, UniformCoversDomain) {
  DomainSampler sampler(ValueDistribution::kUniform, 10, 1.0);
  Rng rng(3);
  std::map<size_t, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [value, count] : counts) {
    EXPECT_LT(value, 10u);
    EXPECT_NEAR(count / 10000.0, 0.1, 0.03);
  }
}

TEST(DomainSamplerTest, ZipfSkews) {
  DomainSampler sampler(ValueDistribution::kZipfian, 20, 1.3);
  Rng rng(5);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_GT(counts[0], 3 * counts[5]);
}

TEST(DomainSamplerTest, GaussianCentersOnMiddle) {
  DomainSampler sampler(ValueDistribution::kGaussian, 101, 1.0);
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    size_t v = sampler.Sample(&rng);
    ASSERT_LT(v, 101u);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(SyntheticTest, DeterministicInSeed) {
  SyntheticSpec spec;
  spec.num_rows = 200;
  spec.seed = 11;
  AttributeSpec a;
  a.name = "A";
  a.domain_size = 5;
  spec.attributes = {a};
  auto r1 = GenerateSynthetic(spec);
  auto r2 = GenerateSynthetic(spec);
  ASSERT_TRUE(r1.ok() && r2.ok());
  for (RowId row = 0; row < r1->NumRows(); ++row) {
    EXPECT_EQ(r1->At(row, 0), r2->At(row, 0));
  }
  spec.seed = 12;
  auto r3 = GenerateSynthetic(spec);
  ASSERT_TRUE(r3.ok());
  size_t diff = 0;
  for (RowId row = 0; row < r1->NumRows(); ++row) {
    diff += r1->At(row, 0) != r3->At(row, 0);
  }
  EXPECT_GT(diff, 0u);
}

TEST(SyntheticTest, ValidatesSpec) {
  SyntheticSpec spec;
  EXPECT_FALSE(GenerateSynthetic(spec).ok());  // no attributes
  AttributeSpec a;
  a.name = "A";
  a.domain_size = 0;
  spec.attributes = {a};
  EXPECT_FALSE(GenerateSynthetic(spec).ok());
  a.domain_size = 3;
  a.correlation = 2.0;
  spec.attributes = {a};
  EXPECT_FALSE(GenerateSynthetic(spec).ok());
}

TEST(SyntheticTest, NumericAttributeEmitsParsableIntegers) {
  SyntheticSpec spec;
  spec.num_rows = 100;
  AttributeSpec age;
  age.name = "AGE";
  age.kind = AttributeKind::kNumeric;
  age.domain_size = 10;
  age.numeric_base = 30;
  spec.attributes = {age};
  auto r = GenerateSynthetic(spec);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->dictionary(0).AllNumeric());
  for (RowId row = 0; row < r->NumRows(); ++row) {
    double v = *r->dictionary(0).NumericValueOf(r->At(row, 0));
    EXPECT_GE(v, 30.0);
    EXPECT_LT(v, 40.0);
  }
}

TEST(SyntheticTest, IdentifierAttributeIsUnique) {
  SyntheticSpec spec;
  spec.num_rows = 150;
  AttributeSpec id;
  id.name = "ID";
  id.role = AttributeRole::kIdentifier;
  AttributeSpec a;
  a.name = "A";
  a.domain_size = 3;
  spec.attributes = {id, a};
  auto r = GenerateSynthetic(spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dictionary(0).size(), 150u);
}

TEST(SyntheticTest, CorrelationCreatesAssociation) {
  // With full correlation, two attributes become deterministic functions
  // of the latent class -> the joint distinct count equals the per-
  // attribute distinct counts' max, far below the product.
  SyntheticSpec spec;
  spec.num_rows = 3000;
  spec.num_latent_classes = 6;
  AttributeSpec a;
  a.name = "A";
  a.domain_size = 12;
  a.correlation = 1.0;
  AttributeSpec b = a;
  b.name = "B";
  spec.attributes = {a, b};
  auto r = GenerateSynthetic(spec);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(CountDistinctQiProjections(*r), 6u);
}

// ------------------------------------------------------------- profiles

// Laid out without padding so the printed parameter bytes (and hence the
// ctest-discovered test names) are deterministic.
struct ProfileCase {
  DatasetProfile profile;
  uint32_t qi_attrs;
  size_t rows;
  size_t attrs;
  size_t qi_projections;  // Table 4 target
};
static_assert(std::has_unique_object_representations_v<ProfileCase>,
              "ProfileCase must have no padding bytes");

class ProfileTest : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(ProfileTest, MatchesTable4Characteristics) {
  const ProfileCase& param = GetParam();
  auto relation = GenerateProfile(param.profile);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  EXPECT_EQ(relation->NumRows(), param.rows);
  EXPECT_EQ(relation->NumAttributes(), param.attrs);
  EXPECT_EQ(relation->schema().qi_indices().size(), param.qi_attrs);
  // |Pi_QI(R)| within a factor of ~2 of the original dataset's (the
  // generator is calibrated, not fitted).
  size_t projections = CountDistinctQiProjections(*relation);
  EXPECT_GT(projections, param.qi_projections / 2) << projections;
  EXPECT_LT(projections, param.qi_projections * 2) << projections;
}

INSTANTIATE_TEST_SUITE_P(
    Table4, ProfileTest,
    ::testing::Values(
        ProfileCase{DatasetProfile::kPantheon, 5, 11341, 17, 5636},
        ProfileCase{DatasetProfile::kCredit, 3, 1000, 20, 60},
        ProfileCase{DatasetProfile::kPopSyn, 5, 100000, 7, 24630}),
    [](const ::testing::TestParamInfo<ProfileCase>& info) {
      std::string name = DatasetProfileToString(info.param.profile);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ProfileTest, CensusScalesByRowOverride) {
  ProfileOptions options;
  options.num_rows = 5000;  // full census is slow for unit tests
  auto relation = GenerateProfile(DatasetProfile::kCensus, options);
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation->NumRows(), 5000u);
  EXPECT_EQ(relation->NumAttributes(), 40u);
}

TEST(ProfileTest, DefaultConstraintsSatisfiable) {
  ProfileOptions options;
  options.num_rows = 4000;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, options);
  ASSERT_TRUE(relation.ok());
  auto constraints = DefaultConstraints(DatasetProfile::kPopSyn, *relation);
  ASSERT_TRUE(constraints.ok()) << constraints.status().ToString();
  EXPECT_EQ(constraints->size(),
            DefaultConstraintCount(DatasetProfile::kPopSyn));
  for (const auto& constraint : *constraints) {
    EXPECT_TRUE(testing::NaiveSatisfied(*relation, constraint))
        << constraint.ToString();
  }
}

TEST(ProfileTest, PopSynHonorsDistributionKnob) {
  ProfileOptions uniform;
  uniform.num_rows = 5000;
  uniform.characteristic_distribution = ValueDistribution::kUniform;
  ProfileOptions zipf;
  zipf.num_rows = 5000;
  zipf.characteristic_distribution = ValueDistribution::kZipfian;

  auto ru = GenerateProfile(DatasetProfile::kPopSyn, uniform);
  auto rz = GenerateProfile(DatasetProfile::kPopSyn, zipf);
  ASSERT_TRUE(ru.ok() && rz.ok());

  // Compare the modal frequency of ETH: Zipf concentrates mass.
  auto modal_share = [](const Relation& r, size_t col) {
    std::map<ValueCode, size_t> counts;
    for (RowId row = 0; row < r.NumRows(); ++row) ++counts[r.At(row, col)];
    size_t best = 0;
    for (const auto& [code, count] : counts) best = std::max(best, count);
    return static_cast<double>(best) / static_cast<double>(r.NumRows());
  };
  size_t eth = *ru->schema().IndexOf("ETH");
  EXPECT_GT(modal_share(*rz, eth), modal_share(*ru, eth));
}

}  // namespace
}  // namespace diva
