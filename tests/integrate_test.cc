#include <gtest/gtest.h>

#include <algorithm>

#include "anon/suppress.h"
#include "common/rng.h"
#include "core/diva.h"
#include "core/integrate.h"
#include "metrics/metrics.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalRelation;
using testing::MedicalSchema;
using testing::MustParse;

TEST(IntegrateTest, NoViolationIsNoOp) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = {MustParse(*MedicalSchema(),
                                         "ETH[Asian] in [2,5]")};
  Clustering rk = {{0, 1, 2}};
  IntegrateStats stats = IntegrateRepair(&r, constraints, rk);
  EXPECT_EQ(stats.repaired_constraints, 0u);
  EXPECT_EQ(stats.suppressed_cells, 0u);
  EXPECT_EQ(r.ValueString(7, 1), "Asian");
}

TEST(IntegrateTest, QiUpperBoundRepairedByWholeClusters) {
  // Build a relation where a QI-only constraint is over-satisfied by the
  // R_k side: six identical Asian rows in two clusters of three, with an
  // upper bound of 4.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back({"F", "Asian", "30", "BC", "V", "Flu"});
  }
  auto relation = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  Relation r = std::move(relation).value();

  ConstraintSet constraints = {MustParse(*MedicalSchema(),
                                         "ETH[Asian] in [0,4]")};
  Clustering rk = {{0, 1, 2}, {3, 4, 5}};
  SuppressClustersInPlace(&r, rk);  // no-op: rows identical
  ASSERT_EQ(testing::NaiveTargets(r, constraints[0]).size(), 6u);

  IntegrateStats stats = IntegrateRepair(&r, constraints, rk);
  EXPECT_EQ(stats.repaired_constraints, 1u);
  // Excess = 2, smallest covering cluster has 3 rows.
  EXPECT_EQ(stats.suppressed_cells, 3u);
  EXPECT_LE(testing::NaiveTargets(r, constraints[0]).size(), 4u);
  // k-anonymity (k = 3) still holds: the repaired cluster is uniform.
  EXPECT_TRUE(IsKAnonymous(r, 3));
}

TEST(IntegrateTest, PicksSmallestCoveringCluster) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 9; ++i) {
    rows.push_back({"F", "Asian", "30", "BC", "V", "Flu"});
  }
  auto relation = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  Relation r = std::move(relation).value();
  ConstraintSet constraints = {MustParse(*MedicalSchema(),
                                         "ETH[Asian] in [0,7]")};
  // Clusters of sizes 2, 3, 4; excess = 2 -> the size-2 cluster suffices.
  Clustering rk = {{0, 1}, {2, 3, 4}, {5, 6, 7, 8}};
  IntegrateStats stats = IntegrateRepair(&r, constraints, rk);
  EXPECT_EQ(stats.suppressed_cells, 2u);
  EXPECT_EQ(testing::NaiveTargets(r, constraints[0]).size(), 7u);
}

TEST(IntegrateTest, CombinesClustersWhenOneIsNotEnough) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 9; ++i) {
    rows.push_back({"F", "Asian", "30", "BC", "V", "Flu"});
  }
  auto relation = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  Relation r = std::move(relation).value();
  ConstraintSet constraints = {MustParse(*MedicalSchema(),
                                         "ETH[Asian] in [0,1]")};
  // Excess = 8; clusters 2+3+4 = 9 rows; repair should remove >= 8.
  Clustering rk = {{0, 1}, {2, 3, 4}, {5, 6, 7, 8}};
  IntegrateStats stats = IntegrateRepair(&r, constraints, rk);
  EXPECT_LE(testing::NaiveTargets(r, constraints[0]).size(), 1u);
  EXPECT_GE(stats.suppressed_cells, 8u);
}

TEST(IntegrateTest, SensitiveTargetRepairedCellWise) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back({"F", "Asian", "30", "BC", "V", "Flu"});
  }
  auto relation = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  Relation r = std::move(relation).value();
  ConstraintSet constraints = {MustParse(*MedicalSchema(),
                                         "DIAG[Flu] in [0,3]")};
  Clustering rk = {{0, 1, 2, 3, 4}};
  IntegrateStats stats = IntegrateRepair(&r, constraints, rk);
  // Exactly the excess (2) sensitive cells suppressed — no overshoot.
  EXPECT_EQ(stats.suppressed_cells, 2u);
  EXPECT_EQ(testing::NaiveTargets(r, constraints[0]).size(), 3u);
  // QI cells untouched; group intact.
  EXPECT_TRUE(IsKAnonymous(r, 5));
}

TEST(IntegrateTest, MixedTargetPrefersSensitiveCell) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 4; ++i) {
    rows.push_back({"F", "Asian", "30", "BC", "V", "Flu"});
  }
  auto relation = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  Relation r = std::move(relation).value();
  ConstraintSet constraints = {MustParse(*MedicalSchema(),
                                         "ETH,DIAG[Asian,Flu] in [0,2]")};
  Clustering rk = {{0, 1, 2, 3}};
  IntegrateStats stats = IntegrateRepair(&r, constraints, rk);
  EXPECT_EQ(stats.suppressed_cells, 2u);
  EXPECT_EQ(testing::NaiveTargets(r, constraints[0]).size(), 2u);
  // The QI column survived (repair used DIAG cells).
  for (RowId row = 0; row < 4; ++row) {
    EXPECT_FALSE(r.IsSuppressed(row, 1));
  }
}

TEST(IntegrateTest, MultipleConstraintsRepairedIndependently) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 4; ++i) rows.push_back({"F", "Asian", "30", "BC", "V", "Flu"});
  for (int i = 0; i < 4; ++i) rows.push_back({"M", "African", "30", "BC", "W", "Cold"});
  auto relation = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  Relation r = std::move(relation).value();
  ConstraintSet constraints = {
      MustParse(*MedicalSchema(), "ETH[Asian] in [0,2]"),
      MustParse(*MedicalSchema(), "ETH[African] in [0,2]"),
  };
  Clustering rk = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  IntegrateStats stats = IntegrateRepair(&r, constraints, rk);
  EXPECT_EQ(stats.repaired_constraints, 2u);
  EXPECT_LE(testing::NaiveTargets(r, constraints[0]).size(), 2u);
  EXPECT_LE(testing::NaiveTargets(r, constraints[1]).size(), 2u);
}

TEST(IntegrateTest, RepairOfOneConstraintCanFixAnother) {
  // Two constraints targeting the same column value: repairing the first
  // also lowers the second's count; the second must then not over-repair.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 6; ++i) rows.push_back({"F", "Asian", "30", "BC", "V", "Flu"});
  auto relation = RelationFromRows(MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  Relation r = std::move(relation).value();
  ConstraintSet constraints = {
      MustParse(*MedicalSchema(), "ETH[Asian] in [0,3]"),
      MustParse(*MedicalSchema(), "ETH,CTY[Asian,V] in [0,3]"),
  };
  Clustering rk = {{0, 1, 2}, {3, 4, 5}};
  IntegrateStats stats = IntegrateRepair(&r, constraints, rk);
  EXPECT_EQ(stats.repaired_constraints, 1u);  // second already fixed
  EXPECT_LE(testing::NaiveTargets(r, constraints[0]).size(), 3u);
  EXPECT_LE(testing::NaiveTargets(r, constraints[1]).size(), 3u);
}

// ---------------------------------------------------------------------------
// Leftover fold

/// The fold's original ranking, kept as the reference: each candidate
/// merge is applied to a full copy of the relation and every constraint
/// is recounted; rank = (new violations, ★s), first least rank wins.
void CopyAndRescanFold(Relation* out, Clustering* clusters,
                       const std::vector<RowId>& leftover,
                       const ConstraintSet& constraints) {
  for (RowId row : leftover) {
    std::vector<size_t> before = ViolatedConstraints(*out, constraints);
    std::pair<size_t, size_t> best_rank{SIZE_MAX, SIZE_MAX};
    size_t best = 0;
    for (size_t c = 0; c < clusters->size(); ++c) {
      Cluster merged = (*clusters)[c];
      merged.push_back(row);
      Relation trial = *out;
      SuppressClustersInPlace(&trial, Clustering{merged});
      const std::vector<size_t> after = ViolatedConstraints(trial, constraints);
      const size_t new_violations = std::ranges::count_if(after, [&](size_t v) {
        return !std::binary_search(before.begin(), before.end(), v);
      });
      const std::pair<size_t, size_t> rank{new_violations,
                                           SuppressionCost(*out, merged)};
      if (rank < best_rank) {
        best_rank = rank;
        best = c;
      }
    }
    (*clusters)[best].push_back(row);
    SuppressClustersInPlace(out, Clustering{(*clusters)[best]});
  }
}

TEST(LeftoverFoldTest, MatchesTheCopyAndRescanRankingOnFuzzInstances) {
  // Sorted chunks of k to 2k-1 rows over small domains, so many clusters
  // keep values; stragglers carry a value no cluster has (every merge
  // suppresses) and a star; lower bounds sit 0-3 under current counts.
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const size_t num_qi = 2 + rng.NextBounded(2);
    std::vector<Attribute> attributes;
    for (size_t i = 0; i < num_qi; ++i) {
      attributes.push_back({"Q" + std::to_string(i)});
    }
    auto schema = Schema::Make(attributes);
    ASSERT_TRUE(schema.ok());
    auto random_row = [&] {
      std::vector<std::string> row;
      for (size_t i = 0; i < num_qi; ++i) {
        row.push_back("v" + std::to_string(rng.NextBounded(2 + i)));
      }
      return row;
    };
    const size_t k = 2 + rng.NextBounded(3);
    std::vector<std::vector<std::string>> rows;
    for (size_t n = 30 + rng.NextBounded(40); n > 0; --n) {
      rows.push_back(random_row());
    }
    std::sort(rows.begin(), rows.end());
    const size_t clustered = rows.size();
    std::vector<RowId> leftover;
    for (size_t n = 1 + rng.NextBounded(k - 1); n > 0; --n) {
      leftover.push_back(static_cast<RowId>(rows.size()));
      rows.push_back(random_row());
      rows.back()[rng.NextBounded(num_qi)] = "*";
      rows.back()[rng.NextBounded(num_qi)] = "new";
    }
    auto built = RelationFromRows(*schema, rows);
    ASSERT_TRUE(built.ok());
    Relation input = std::move(built).value();
    Clustering clusters;
    for (size_t begin = 0, end = 0; begin + k <= clustered; begin = end) {
      end = begin + k + rng.NextBounded(k);
      if (end + k > clustered) end = clustered;
      clusters.emplace_back();
      for (size_t row = begin; row < end; ++row) {
        clusters.back().push_back(static_cast<RowId>(row));
      }
    }
    SuppressClustersInPlace(&input, clusters);
    ConstraintSet constraints;
    for (int n = 0; n < 5; ++n) {
      const RowId row = static_cast<RowId>(rng.NextBounded(clustered));
      std::vector<std::string> names;
      std::vector<std::string> values;
      for (size_t col = 0; col < num_qi; ++col) {
        if (rng.NextBounded(2) == 0 || input.IsSuppressed(row, col)) continue;
        names.push_back(attributes[col].name);
        values.push_back(input.ValueString(row, col));
      }
      if (names.empty()) continue;
      auto probe = DiversityConstraint::Make(**schema, names, values, 0, 0);
      ASSERT_TRUE(probe.ok());
      const uint32_t count =
          static_cast<uint32_t>(testing::NaiveTargets(input, *probe).size());
      const uint32_t slack = static_cast<uint32_t>(rng.NextBounded(4));
      const uint32_t lower = rng.NextBounded(6) == 0 ? count + 1
                             : count > slack         ? count - slack
                                                     : 0;
      auto constraint = DiversityConstraint::Make(
          **schema, names, values, lower,
          std::max<uint32_t>(lower, count + rng.NextBounded(3)));
      ASSERT_TRUE(constraint.ok());
      constraints.push_back(std::move(constraint).value());
    }

    Relation expected = input;
    Clustering expected_clusters = clusters;
    CopyAndRescanFold(&expected, &expected_clusters, leftover, constraints);
    FoldLeftoverRows(&input, &clusters, leftover, constraints);
    EXPECT_EQ(clusters, expected_clusters) << "seed " << seed;
    for (RowId row = 0; row < input.NumRows(); ++row) {
      ASSERT_TRUE(std::ranges::equal(input.Row(row), expected.Row(row)))
          << "seed " << seed << " row " << row;
    }
  }
}

TEST(LeftoverFoldTest, ThreeStragglersAfterSixtyFourThousandCoveredRows) {
  // Sigma covers 64,000 a rows in runs of 10; the 3 z rows are stragglers.
  // Each fold stars A and B of one 10-row cluster plus the straggler.
  auto schema = Schema::Make({{"A"}, {"B"}});
  ASSERT_TRUE(schema.ok());
  Relation relation(*schema);
  for (int row = 0; row < 64000; ++row) {
    const std::string b = "b" + std::to_string(row / 10);
    ASSERT_TRUE(relation.AppendRowStrings({"a", b}).ok());
  }
  for (int row = 0; row < 3; ++row) {
    ASSERT_TRUE(relation.AppendRowStrings({"z", "bz"}).ok());
  }
  DivaOptions options;
  options.k = 10;
  options.audit = true;
  auto result = RunDiva(relation, {MustParse(**schema, "A[a] in [64000,64000]")},
                        options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.sigma_rows, 64000u);
  EXPECT_EQ(result->report.unsatisfied, std::vector<size_t>{0});
  EXPECT_EQ(CountStars(result->relation), 3u * 11u * 2u);
  for (RowId row = 64000; row < 64003; ++row) {
    EXPECT_TRUE(result->relation.IsSuppressed(row, 0)) << row;
    EXPECT_TRUE(result->relation.IsSuppressed(row, 1)) << row;
  }
}

}  // namespace
}  // namespace diva
