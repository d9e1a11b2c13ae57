// Randomized mini-workload fuzzing: many small random relations and
// constraint sets, every algorithm run on each, core invariants checked.
// Catches interaction bugs that hand-written cases miss.

#include <gtest/gtest.h>

#include <numeric>

#include "anon/anonymizer.h"
#include "anon/privacy.h"
#include "anon/suppress.h"
#include "core/diva.h"
#include "metrics/metrics.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using diva::testing::FuzzWorkload;
using diva::testing::MakeWorkload;

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, BaselinesAlwaysKAnonymous) {
  FuzzWorkload workload = MakeWorkload(GetParam());
  if (workload.relation.NumRows() < workload.k) GTEST_SKIP();
  for (BaselineAlgorithm algorithm :
       {BaselineAlgorithm::kKMember, BaselineAlgorithm::kOka,
        BaselineAlgorithm::kMondrian}) {
    DivaOptions factory;
    factory.baseline = algorithm;
    factory.anonymizer.seed = GetParam();
    auto anonymizer = MakeBaselineAnonymizer(factory);
    auto result = Anonymize(anonymizer.get(), workload.relation, workload.k);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(IsKAnonymous(*result, workload.k))
        << BaselineAlgorithmToString(algorithm) << " seed " << GetParam();
  }
}

TEST_P(FuzzTest, DivaInvariantsHold) {
  FuzzWorkload workload = MakeWorkload(GetParam());
  if (workload.relation.NumRows() < workload.k) GTEST_SKIP();

  DivaOptions options;
  options.k = workload.k;
  options.seed = GetParam() * 31 + 1;
  options.coloring_budget = 20000;
  auto result = RunDiva(workload.relation, workload.constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Invariant 1: k-anonymity, always.
  EXPECT_TRUE(IsKAnonymous(result->relation, workload.k))
      << "seed " << GetParam();
  // Invariant 2: upper bounds, always.
  for (const auto& constraint : workload.constraints) {
    EXPECT_LE(testing::NaiveTargets(result->relation, constraint).size(),
              constraint.upper())
        << constraint.ToString() << " seed " << GetParam();
  }
  // Invariant 3: complete coloring => Sigma satisfied.
  if (result->report.clustering_complete) {
    EXPECT_TRUE(SatisfiesAll(result->relation, workload.constraints))
        << "seed " << GetParam();
  }
  // Invariant 4: suppression-only output (modulo blanked identifiers).
  for (RowId row = 0; row < workload.relation.NumRows(); ++row) {
    for (size_t col = 0; col < workload.relation.NumAttributes(); ++col) {
      if (!result->relation.IsSuppressed(row, col)) {
        EXPECT_EQ(result->relation.At(row, col),
                  workload.relation.At(row, col));
      }
    }
  }
  // Invariant 5: accuracy within [0, 1].
  double accuracy =
      OverallAccuracy(result->relation, workload.k, workload.constraints);
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
}

TEST_P(FuzzTest, DivaIsDeterministic) {
  FuzzWorkload workload = MakeWorkload(GetParam());
  if (workload.relation.NumRows() < workload.k) GTEST_SKIP();
  DivaOptions options;
  options.k = workload.k;
  options.seed = GetParam();
  options.coloring_budget = 10000;
  auto a = RunDiva(workload.relation, workload.constraints, options);
  auto b = RunDiva(workload.relation, workload.constraints, options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (RowId row = 0; row < workload.relation.NumRows(); ++row) {
    for (size_t col = 0; col < workload.relation.NumAttributes(); ++col) {
      ASSERT_EQ(a->relation.At(row, col), b->relation.At(row, col))
          << "seed " << GetParam();
    }
  }
}

TEST_P(FuzzTest, PrivacyEnforcementUpgrades) {
  FuzzWorkload workload = MakeWorkload(GetParam());
  if (workload.relation.NumRows() < workload.k) GTEST_SKIP();
  auto anonymizer = MakeKMember({});
  std::vector<RowId> rows(workload.relation.NumRows());
  std::iota(rows.begin(), rows.end(), 0);
  auto clusters =
      anonymizer->BuildClusters(workload.relation, rows, workload.k);
  ASSERT_TRUE(clusters.ok());
  Relation out = workload.relation;
  SuppressClustersInPlace(&out, *clusters);

  size_t l = 2;
  if (CountDistinctSensitiveProjections(out) >= l) {
    auto merged = EnforceLDiversity(&out, *clusters, l);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_TRUE(IsDistinctLDiverse(out, l)) << "seed " << GetParam();
    EXPECT_TRUE(IsKAnonymous(out, workload.k)) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<uint64_t>(1, 33),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace diva
