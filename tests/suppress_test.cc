#include <gtest/gtest.h>

#include <string>

#include "anon/suppress.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalRelation;

TEST(SuppressTest, PaperExampleClusterSuppression) {
  // Example 3.1: clusters C1={t9,t10}, C2={t5,t6}, C3={t7,t8} with k=2
  // produce the g5..g10 rows of Table 3, in place at rows 8-9, 4-5, 6-7.
  Relation r = MedicalRelation();
  Clustering clustering = {{8, 9}, {4, 5}, {6, 7}};
  SuppressClustersInPlace(&r, clustering);

  ASSERT_EQ(r.NumRows(), 10u);
  for (RowId row : {8, 9}) {
    SCOPED_TRACE("row " + std::to_string(row));
    // C1 = {t9, t10}: Female Asian, ages/provinces/cities differ -> g9, g10.
    EXPECT_EQ(r.ValueString(row, 0), "Female");
    EXPECT_EQ(r.ValueString(row, 1), "Asian");
    EXPECT_EQ(r.ValueString(row, 2), "*");
    EXPECT_EQ(r.ValueString(row, 3), "*");
    EXPECT_EQ(r.ValueString(row, 4), "*");
  }
  EXPECT_EQ(r.ValueString(8, 5), "Influenza");  // sensitive kept
  for (RowId row : {4, 5}) {
    SCOPED_TRACE("row " + std::to_string(row));
    // C2 = {t5, t6}: Male African, rest suppressed -> g5, g6.
    EXPECT_EQ(r.ValueString(row, 0), "Male");
    EXPECT_EQ(r.ValueString(row, 1), "African");
    EXPECT_EQ(r.ValueString(row, 3), "*");
  }
  for (RowId row : {6, 7}) {
    SCOPED_TRACE("row " + std::to_string(row));
    // C3 = {t7, t8}: differ on GEN/ETH/AGE, share BC Vancouver -> g7, g8.
    EXPECT_EQ(r.ValueString(row, 0), "*");
    EXPECT_EQ(r.ValueString(row, 1), "*");
    EXPECT_EQ(r.ValueString(row, 3), "BC");
    EXPECT_EQ(r.ValueString(row, 4), "Vancouver");
  }
}

TEST(SuppressTest, InPlaceTouchesOnlyClusteredRows) {
  Relation r = MedicalRelation();
  Clustering clustering = {{6, 7}};
  SuppressClustersInPlace(&r, clustering);
  // Clustered rows suppressed on disagreeing columns.
  EXPECT_TRUE(r.IsSuppressed(6, 0));
  EXPECT_TRUE(r.IsSuppressed(7, 1));
  EXPECT_EQ(r.ValueString(6, 4), "Vancouver");
  // Other rows untouched.
  EXPECT_EQ(r.ValueString(0, 0), "Female");
  EXPECT_FALSE(r.IsSuppressed(5, 0));
}

TEST(SuppressTest, UnanimousClusterUnchanged) {
  auto r = RelationFromRows(testing::MedicalSchema(),
                            {
                                {"F", "Asian", "30", "BC", "V", "Flu"},
                                {"F", "Asian", "30", "BC", "V", "Cold"},
                            });
  ASSERT_TRUE(r.ok());
  Clustering clustering = {{0, 1}};
  SuppressClustersInPlace(&(*r), clustering);
  for (size_t col = 0; col < 5; ++col) {
    EXPECT_FALSE(r->IsSuppressed(0, col));
    EXPECT_FALSE(r->IsSuppressed(1, col));
  }
}

TEST(SuppressTest, SensitiveNeverSuppressed) {
  Relation r = MedicalRelation();
  Clustering clustering = {{0, 1, 2, 3, 4}};
  SuppressClustersInPlace(&r, clustering);
  for (RowId row = 0; row < 5; ++row) {
    EXPECT_FALSE(r.IsSuppressed(row, 5));
  }
}

TEST(SuppressTest, ClustersBecomeQiGroups) {
  Relation r = MedicalRelation();
  Clustering clustering = {{8, 9}, {4, 5}, {6, 7}, {0, 1, 2, 3}};
  SuppressClustersInPlace(&r, clustering);
  EXPECT_TRUE(IsKAnonymous(r, 2));
  QiGroups groups = ComputeQiGroups(r);
  EXPECT_EQ(groups.groups.size(), 4u);
}

TEST(SuppressTest, SuppressionCostCountsStars) {
  Relation r = MedicalRelation();
  // {t9, t10}: identical on GEN and ETH, differ on AGE, PRV, CTY
  // -> 3 columns x 2 rows = 6 stars.
  std::vector<RowId> cluster = {8, 9};
  EXPECT_EQ(SuppressionCost(r, cluster), 6u);
  // Singleton cluster costs nothing.
  std::vector<RowId> single = {0};
  EXPECT_EQ(SuppressionCost(r, single), 0u);
}

TEST(SuppressTest, SuppressionCostMatchesInPlaceStars) {
  Relation r = MedicalRelation();
  Clustering clustering = {{0, 1, 2}, {5, 6}};
  size_t predicted = 0;
  for (const Cluster& c : clustering) predicted += SuppressionCost(r, c);
  SuppressClustersInPlace(&r, clustering);
  size_t stars = 0;
  for (RowId row = 0; row < r.NumRows(); ++row) {
    for (size_t col = 0; col < r.NumAttributes(); ++col) {
      stars += r.IsSuppressed(row, col);
    }
  }
  EXPECT_EQ(stars, predicted);
}

TEST(SuppressTest, AlreadySuppressedCellForcesColumn) {
  auto r = RelationFromRows(testing::MedicalSchema(),
                            {
                                {"*", "Asian", "30", "BC", "V", "Flu"},
                                {"F", "Asian", "30", "BC", "V", "Cold"},
                            });
  ASSERT_TRUE(r.ok());
  Clustering clustering = {{0, 1}};
  SuppressClustersInPlace(&(*r), clustering);
  // A pre-suppressed cell cannot be unanimous: the whole column goes.
  EXPECT_TRUE(r->IsSuppressed(1, 0));
}

// Bit q of StarMask is set iff SuppressClustersInPlace stars QI column
// q on the cluster's rows, pre-suppressed cells included.
TEST(SuppressTest, StarMaskNamesTheColumnsInPlaceSuppressionStars) {
  auto r = RelationFromRows(testing::MedicalSchema(),
                            {
                                {"*", "Asian", "30", "BC", "V", "Flu"},
                                {"F", "Asian", "30", "BC", "V", "Cold"},
                                {"F", "Asian", "31", "BC", "T", "Flu"},
                                {"M", "White", "30", "ON", "V", "Cold"},
                                {"M", "White", "30", "ON", "V", "Flu"},
                            });
  ASSERT_TRUE(r.ok());
  const Clustering clustering = {{0, 1}, {1, 2}, {3, 4}, {2}, {0, 2, 3}};
  const auto& qi = r->schema().qi_indices();
  ASSERT_LE(qi.size(), kStarMaskColumns);
  for (const Cluster& cluster : clustering) {
    const uint8_t mask = StarMask(*r, cluster);
    Relation suppressed = *r;
    SuppressClustersInPlace(&suppressed, {cluster});
    for (RowId row : cluster) {
      for (size_t q = 0; q < qi.size(); ++q) {
        EXPECT_EQ(suppressed.IsSuppressed(row, qi[q]), (mask >> q & 1) != 0)
            << "row " << row << ", QI column " << q;
      }
    }
  }
}

}  // namespace
}  // namespace diva
