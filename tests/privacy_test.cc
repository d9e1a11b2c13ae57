#include <gtest/gtest.h>

#include "anon/anonymizer.h"
#include "anon/privacy.h"
#include "anon/suppress.h"
#include "core/diva.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalConstraints;
using testing::MedicalRelation;
using testing::MedicalSchema;

TEST(PrivacyTest, LOneIsAlwaysSatisfied) {
  Relation r = MedicalRelation();
  EXPECT_TRUE(IsDistinctLDiverse(r, 0));
  EXPECT_TRUE(IsDistinctLDiverse(r, 1));
}

TEST(PrivacyTest, DetectsHomogeneousGroup) {
  // Two identical-QI rows sharing one diagnosis: 2-anonymous but not
  // 2-diverse (the homogeneity attack case).
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "Asian", "30", "BC", "V", "Flu"},
                                {"F", "Asian", "30", "BC", "V", "Flu"},
                                {"M", "Cauc", "40", "AB", "C", "Flu"},
                                {"M", "Cauc", "40", "AB", "C", "Cold"},
                            });
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(IsKAnonymous(*r, 2));
  EXPECT_FALSE(IsDistinctLDiverse(*r, 2));
}

TEST(PrivacyTest, CountDistinctSensitiveProjections) {
  Relation r = MedicalRelation();
  // Table 1 diagnoses: Hypertension x3, Tuberculosis, Osteoarthritis,
  // Migraine x2, Seizure x2, Influenza -> 6 distinct.
  EXPECT_EQ(CountDistinctSensitiveProjections(r), 6u);
}

TEST(PrivacyTest, EnforceMergesHomogeneousClusters) {
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "Asian", "30", "BC", "V", "Flu"},
                                {"F", "Asian", "30", "BC", "V", "Flu"},
                                {"M", "Cauc", "40", "AB", "C", "Flu"},
                                {"M", "Cauc", "40", "AB", "C", "Cold"},
                            });
  ASSERT_TRUE(r.ok());
  Clustering clusters = {{0, 1}, {2, 3}};
  auto merged = EnforceLDiversity(&(*r), clusters, 2);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->size(), 1u);
  EXPECT_TRUE(IsDistinctLDiverse(*r, 2));
  EXPECT_TRUE(IsKAnonymous(*r, 2));
}

TEST(PrivacyTest, EnforceKeepsAlreadyDiverseClusters) {
  Relation r = MedicalRelation();
  Clustering clusters = {{0, 1, 2}, {3, 4, 5, 6}, {7, 8, 9}};
  Relation before = r;
  auto merged = EnforceLDiversity(&r, clusters, 2);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), 3u);  // every cluster already 2-diverse
}

TEST(PrivacyTest, EnforceInfeasibleWhenTooFewSensitiveValues) {
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "Asian", "30", "BC", "V", "Flu"},
                                {"M", "Cauc", "40", "AB", "C", "Flu"},
                            });
  ASSERT_TRUE(r.ok());
  Clustering clusters = {{0, 1}};
  auto merged = EnforceLDiversity(&(*r), clusters, 2);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInfeasible);
}

TEST(PrivacyTest, DivaWithLDiversityOption) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  options.l_diversity = 2;
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(IsKAnonymous(result->relation, 2));
  EXPECT_TRUE(IsDistinctLDiverse(result->relation, 2));
  // Upper bounds still hold even if merging cost some lower bounds.
  for (const auto& constraint : constraints) {
    EXPECT_LE(testing::NaiveTargets(result->relation, constraint).size(),
              constraint.upper());
  }
}

TEST(PrivacyTest, DivaLDiversityInfeasibleReported) {
  // All rows share one diagnosis: l = 2 is impossible.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back({"F", "Asian", std::to_string(30 + i), "BC", "V", "Flu"});
  }
  auto r = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(r.ok());
  DivaOptions options;
  options.k = 2;
  options.l_diversity = 2;
  auto result = RunDiva(*r, {}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

// ------------------------------------------------------------ t-closeness

TEST(TClosenessTest, UniformGroupsAreClose) {
  // Two groups, each mirroring the global 50/50 Flu/Cold split.
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "A", "30", "BC", "V", "Flu"},
                                {"F", "A", "30", "BC", "V", "Cold"},
                                {"M", "B", "40", "AB", "C", "Flu"},
                                {"M", "B", "40", "AB", "C", "Cold"},
                            });
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(TClosenessDistance(*r), 0.0, 1e-12);
  EXPECT_TRUE(IsTClose(*r, 0.0));
}

TEST(TClosenessTest, SkewedGroupScoresItsDivergence) {
  // Global: 1/2 Flu, 1/2 Cold. Each group is pure -> variational
  // distance 1/2.
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "A", "30", "BC", "V", "Flu"},
                                {"F", "A", "30", "BC", "V", "Flu"},
                                {"M", "B", "40", "AB", "C", "Cold"},
                                {"M", "B", "40", "AB", "C", "Cold"},
                            });
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(TClosenessDistance(*r), 0.5, 1e-12);
  EXPECT_FALSE(IsTClose(*r, 0.4));
  EXPECT_TRUE(IsTClose(*r, 0.5));
}

TEST(TClosenessTest, EnforceMergesFarGroups) {
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "A", "30", "BC", "V", "Flu"},
                                {"F", "A", "30", "BC", "V", "Flu"},
                                {"M", "B", "40", "AB", "C", "Cold"},
                                {"M", "B", "40", "AB", "C", "Cold"},
                            });
  ASSERT_TRUE(r.ok());
  Clustering clusters = {{0, 1}, {2, 3}};
  auto merged = EnforceTCloseness(&(*r), clusters, 0.2);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), 1u);
  EXPECT_TRUE(IsTClose(*r, 0.2));
  EXPECT_TRUE(IsKAnonymous(*r, 2));
}

TEST(TClosenessTest, EnforceKeepsCloseGroups) {
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "A", "30", "BC", "V", "Flu"},
                                {"F", "A", "30", "BC", "V", "Cold"},
                                {"M", "B", "40", "AB", "C", "Flu"},
                                {"M", "B", "40", "AB", "C", "Cold"},
                            });
  ASSERT_TRUE(r.ok());
  Clustering clusters = {{0, 1}, {2, 3}};
  auto merged = EnforceTCloseness(&(*r), clusters, 0.1);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), 2u);
}

TEST(TClosenessTest, NegativeTRejected) {
  Relation r = MedicalRelation();
  Clustering clusters = {{0, 1}};
  EXPECT_FALSE(EnforceTCloseness(&r, clusters, -0.1).ok());
}

TEST(TClosenessTest, DivaWithTClosenessOption) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  options.t_closeness = 0.6;
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(IsKAnonymous(result->relation, 2));
  EXPECT_TRUE(IsTClose(result->relation, 0.6));
}

TEST(PrivacyTest, AnonymizerOutputCanBeUpgraded) {
  Relation r = MedicalRelation();
  auto kmember = MakeKMember({});
  std::vector<RowId> rows(r.NumRows());
  for (RowId i = 0; i < r.NumRows(); ++i) rows[i] = i;
  auto clusters = kmember->BuildClusters(r, rows, 2);
  ASSERT_TRUE(clusters.ok());
  Relation out = r;
  SuppressClustersInPlace(&out, *clusters);
  auto merged = EnforceLDiversity(&out, std::move(*clusters), 3);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(IsDistinctLDiverse(out, 3));
  EXPECT_TRUE(IsKAnonymous(out, 2));
}

}  // namespace
}  // namespace diva
