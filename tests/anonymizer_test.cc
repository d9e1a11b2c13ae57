#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "anon/anonymizer.h"
#include "anon/distance.h"
#include "anon/kmember.h"
#include "anon/suppress.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "datagen/profiles.h"
#include "datagen/synthetic.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalRelation;

enum class Algo { kKMember, kOka, kMondrian };

std::unique_ptr<Anonymizer> MakeAlgo(Algo algo,
                                     const AnonymizerOptions& options) {
  switch (algo) {
    case Algo::kKMember:
      return MakeKMember(options);
    case Algo::kOka:
      return MakeOka(options);
    case Algo::kMondrian:
      return MakeMondrian(options);
  }
  return nullptr;
}

std::unique_ptr<Anonymizer> MakeAlgo(Algo algo, uint64_t seed) {
  AnonymizerOptions options;
  options.seed = seed;
  return MakeAlgo(algo, options);
}

const char* AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kKMember:
      return "kmember";
    case Algo::kOka:
      return "oka";
    case Algo::kMondrian:
      return "mondrian";
  }
  return "?";
}

Relation SyntheticFixture(size_t rows, uint64_t seed) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.seed = seed;
  AttributeSpec a;
  a.name = "A";
  a.domain_size = 5;
  a.distribution = ValueDistribution::kZipfian;
  AttributeSpec b = a;
  b.name = "B";
  b.domain_size = 9;
  AttributeSpec age;
  age.name = "AGE";
  age.kind = AttributeKind::kNumeric;
  age.domain_size = 60;
  age.numeric_base = 20;
  age.distribution = ValueDistribution::kGaussian;
  AttributeSpec s;
  s.name = "S";
  s.role = AttributeRole::kSensitive;
  s.domain_size = 6;
  spec.attributes = {a, b, age, s};
  auto relation = GenerateSynthetic(spec);
  DIVA_CHECK(relation.ok());
  return std::move(relation).value();
}

struct AnonCase {
  Algo algo;
  size_t k;
  size_t rows;
};

class AnonymizerPropertyTest : public ::testing::TestWithParam<AnonCase> {};

TEST_P(AnonymizerPropertyTest, ClustersPartitionRowsWithMinSizeK) {
  const AnonCase& param = GetParam();
  Relation r = SyntheticFixture(param.rows, /*seed=*/31);
  auto algo = MakeAlgo(param.algo, /*seed=*/5);
  std::vector<RowId> rows(r.NumRows());
  std::iota(rows.begin(), rows.end(), 0);
  auto clusters = algo->BuildClusters(r, rows, param.k);
  ASSERT_TRUE(clusters.ok()) << clusters.status().ToString();

  std::vector<int> seen(r.NumRows(), 0);
  for (const Cluster& c : *clusters) {
    EXPECT_GE(c.size(), param.k);
    for (RowId row : c) {
      ASSERT_LT(row, r.NumRows());
      ++seen[row];
    }
  }
  for (size_t row = 0; row < seen.size(); ++row) {
    EXPECT_EQ(seen[row], 1) << "row " << row << " covered "
                            << seen[row] << " times";
  }
}

TEST_P(AnonymizerPropertyTest, AnonymizeOutputIsKAnonymous) {
  const AnonCase& param = GetParam();
  Relation r = SyntheticFixture(param.rows, /*seed=*/67);
  auto algo = MakeAlgo(param.algo, /*seed=*/11);
  auto anonymized = Anonymize(algo.get(), r, param.k);
  ASSERT_TRUE(anonymized.ok()) << anonymized.status().ToString();
  EXPECT_TRUE(IsKAnonymous(*anonymized, param.k));
  EXPECT_EQ(anonymized->NumRows(), r.NumRows());
  // Sensitive values untouched.
  for (RowId row = 0; row < r.NumRows(); ++row) {
    EXPECT_EQ(anonymized->At(row, 3), r.At(row, 3));
  }
  // Non-suppressed QI cells keep their original values (suppression only).
  for (RowId row = 0; row < r.NumRows(); ++row) {
    for (size_t col : r.schema().qi_indices()) {
      if (!anonymized->IsSuppressed(row, col)) {
        EXPECT_EQ(anonymized->At(row, col), r.At(row, col));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnonymizerPropertyTest,
    ::testing::Values(AnonCase{Algo::kKMember, 2, 50},
                      AnonCase{Algo::kKMember, 5, 200},
                      AnonCase{Algo::kKMember, 10, 403},
                      AnonCase{Algo::kOka, 2, 50},
                      AnonCase{Algo::kOka, 5, 200},
                      AnonCase{Algo::kOka, 10, 403},
                      AnonCase{Algo::kMondrian, 2, 50},
                      AnonCase{Algo::kMondrian, 5, 200},
                      AnonCase{Algo::kMondrian, 10, 403}),
    [](const ::testing::TestParamInfo<AnonCase>& info) {
      return std::string(AlgoName(info.param.algo)) + "_k" +
             std::to_string(info.param.k) + "_n" +
             std::to_string(info.param.rows);
    });

class AnonymizerCommonTest : public ::testing::TestWithParam<Algo> {};

TEST_P(AnonymizerCommonTest, EmptyInputYieldsEmptyClustering) {
  Relation r = MedicalRelation();
  auto algo = MakeAlgo(GetParam(), 1);
  auto clusters = algo->BuildClusters(r, {}, 3);
  ASSERT_TRUE(clusters.ok());
  EXPECT_TRUE(clusters->empty());
}

TEST_P(AnonymizerCommonTest, FewerThanKRowsIsInfeasible) {
  Relation r = MedicalRelation();
  auto algo = MakeAlgo(GetParam(), 1);
  std::vector<RowId> rows = {0, 1};
  auto clusters = algo->BuildClusters(r, rows, 3);
  ASSERT_FALSE(clusters.ok());
  EXPECT_EQ(clusters.status().code(), StatusCode::kInfeasible);
}

TEST_P(AnonymizerCommonTest, KZeroRejected) {
  Relation r = MedicalRelation();
  auto algo = MakeAlgo(GetParam(), 1);
  std::vector<RowId> rows = {0, 1, 2};
  auto clusters = algo->BuildClusters(r, rows, 0);
  ASSERT_FALSE(clusters.ok());
  EXPECT_EQ(clusters.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(AnonymizerCommonTest, SubsetClusteringTouchesOnlySubset) {
  Relation r = MedicalRelation();
  auto algo = MakeAlgo(GetParam(), 3);
  std::vector<RowId> rows = {2, 3, 4, 5, 6};
  auto clusters = algo->BuildClusters(r, rows, 2);
  ASSERT_TRUE(clusters.ok());
  for (const Cluster& c : *clusters) {
    for (RowId row : c) {
      EXPECT_GE(row, 2u);
      EXPECT_LE(row, 6u);
    }
  }
  EXPECT_EQ(TotalRows(*clusters), rows.size());
}

TEST_P(AnonymizerCommonTest, WholeRelationEqualsKGivesOneCluster) {
  Relation r = MedicalRelation();
  auto algo = MakeAlgo(GetParam(), 7);
  std::vector<RowId> rows(r.NumRows());
  std::iota(rows.begin(), rows.end(), 0);
  auto clusters = algo->BuildClusters(r, rows, r.NumRows());
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters->size(), 1u);
  EXPECT_EQ(clusters->front().size(), r.NumRows());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AnonymizerCommonTest,
                         ::testing::Values(Algo::kKMember, Algo::kOka,
                                           Algo::kMondrian),
                         [](const ::testing::TestParamInfo<Algo>& info) {
                           return AlgoName(info.param);
                         });

TEST(KMemberTest, SampledModeStaysKAnonymous) {
  Relation r = SyntheticFixture(500, 13);
  AnonymizerOptions options;
  options.seed = 3;
  options.sample_size = 16;
  auto algo = MakeKMember(options);
  auto anonymized = Anonymize(algo.get(), r, 10);
  ASSERT_TRUE(anonymized.ok());
  EXPECT_TRUE(IsKAnonymous(*anonymized, 10));
}

TEST(MondrianTest, PartitionsAreContiguousInSortOrder) {
  // Mondrian on a single numeric attribute must produce contiguous value
  // ranges: group extents must not overlap.
  auto schema = Schema::Make({
      {"V", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  ASSERT_TRUE(schema.ok());
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back({std::to_string(i), "s"});
  }
  auto r = RelationFromRows(*schema, rows);
  ASSERT_TRUE(r.ok());
  auto algo = MakeMondrian({});
  std::vector<RowId> all(r->NumRows());
  std::iota(all.begin(), all.end(), 0);
  auto clusters = algo->BuildClusters(*r, all, 4);
  ASSERT_TRUE(clusters.ok());
  EXPECT_GT(clusters->size(), 1u);

  std::vector<std::pair<int, int>> extents;
  for (const Cluster& c : *clusters) {
    int lo = 1000;
    int hi = -1;
    for (RowId row : c) {
      int v = static_cast<int>(row);  // value == row index here
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    extents.emplace_back(lo, hi);
  }
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    EXPECT_GT(extents[i].first, extents[i - 1].second);
  }
}

// ---------------------------------------------------------------------
// Byte pins for the greedy k-member kernel and the other two baselines.
// Each expected value is the FNV-1a hash of the cluster list (sizes and
// row ids in output order), recorded with plain per-cell scans over the
// relation and its dictionaries; the packed k-member kernel and the
// metric's numeric table must reproduce them at every thread width.

uint64_t HashClusters(const Clustering& clusters) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  mix(clusters.size());
  for (const Cluster& cluster : clusters) {
    mix(cluster.size());
    for (RowId row : cluster) mix(row);
  }
  return hash;
}

Relation PopSynFixture(size_t rows) {
  ProfileOptions options;
  options.num_rows = rows;
  options.seed = 7;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, options);
  DIVA_CHECK(relation.ok());
  return std::move(relation).value();
}

/// Categorical and numeric QIs with `*` input cells, plus a numeric QI
/// whose every value is equal (a degenerate range: inverse range 0).
Relation StarFixture() {
  auto schema = Schema::Make({
      {"A", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"N", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"B", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"M", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK(schema.ok());
  Rng rng(2024);
  auto maybe_star = [&rng](std::string value) {
    return rng.NextBounded(8) == 0 ? std::string("*") : value;
  };
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 240; ++i) {
    rows.push_back(
        {maybe_star("a" + std::to_string(rng.NextBounded(4))), "7",
         maybe_star("b" + std::to_string(rng.NextBounded(6))),
         maybe_star(std::to_string(20 + rng.NextBounded(41))),
         "s" + std::to_string(rng.NextBounded(3))});
  }
  auto relation = RelationFromRows(*schema, rows);
  DIVA_CHECK(relation.ok());
  return std::move(relation).value();
}

std::vector<RowId> AllRows(const Relation& relation) {
  std::vector<RowId> rows(relation.NumRows());
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

/// Runs `algo` at thread widths 1, 2 and 8 and checks each clustering
/// hashes to `expected`.
void ExpectPinnedAtEveryWidth(Algo algo, const AnonymizerOptions& options,
                              const Relation& relation, size_t k,
                              uint64_t expected) {
  size_t saved = ParallelThreads();
  std::vector<RowId> rows = AllRows(relation);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    auto clusters = MakeAlgo(algo, options)->BuildClusters(relation, rows, k);
    ASSERT_TRUE(clusters.ok()) << clusters.status().ToString();
    EXPECT_EQ(HashClusters(*clusters), expected)
        << AlgoName(algo) << " k=" << k << " threads=" << threads;
  }
  SetParallelThreads(saved);
}

AnonymizerOptions SeededOptions(uint64_t seed, size_t sample_size = 0) {
  AnonymizerOptions options;
  options.seed = seed;
  options.sample_size = sample_size;
  return options;
}

TEST(KMemberKernelTest, PopSynExactPins) {
  Relation relation = PopSynFixture(5000);
  const std::pair<size_t, uint64_t> pins[] = {
      {2, 0xc0e3c39538f0c13cull},
      {5, 0x0b883fda9e534d6aull},
      {10, 0x3f3570f3417e10b0ull},
  };
  for (const auto& [k, expected] : pins) {
    ExpectPinnedAtEveryWidth(Algo::kKMember, SeededOptions(11), relation, k,
                             expected);
  }
}

TEST(KMemberKernelTest, StarCellsAndDegenerateRangePins) {
  Relation relation = StarFixture();
  ExpectPinnedAtEveryWidth(Algo::kKMember, SeededOptions(5), relation, 3,
                           0xb9ac20406e26b183ull);
}

TEST(KMemberKernelTest, SampledModePins) {
  Relation relation = PopSynFixture(5000);
  ExpectPinnedAtEveryWidth(Algo::kKMember, SeededOptions(3, 64), relation,
                           5, 0x8838bceecc338d56ull);
}

/// QI codes of `row`, in the pool's QI-position order.
std::vector<ValueCode> QiCodes(const Relation& relation, RowId row) {
  std::vector<ValueCode> codes;
  for (size_t col : relation.schema().qi_indices()) {
    codes.push_back(relation.At(row, col));
  }
  return codes;
}

// The kernel against DistanceMetric::Distance and
// ClusterCostTracker::CostIncrease, on a pool that shrinks between
// rounds: the packed codes must track every swap-remove, the distance
// must be the metric's double bit-for-bit, and the live-column
// divergence must give the tracker's exact ★ increase.
TEST(KMemberKernelTest, KernelMatchesMetricAndTrackerBitForBit) {
  for (const Relation& relation : {PopSynFixture(1500), StarFixture()}) {
    DistanceMetric metric(relation);
    std::vector<RowId> rows = AllRows(relation);
    KMemberPool pool(relation, metric, rows);
    Rng rng(99);
    std::vector<size_t> live;
    while (pool.size() > 8) {
      RowId anchor =
          static_cast<RowId>(rng.NextBounded(relation.NumRows()));
      pool.SetAnchor(QiCodes(relation, anchor));

      ClusterCostTracker tracker(relation);
      tracker.Reset(static_cast<RowId>(rng.NextBounded(relation.NumRows())));
      for (uint64_t n = rng.NextBounded(6); n > 0; --n) {
        tracker.Add(static_cast<RowId>(rng.NextBounded(relation.NumRows())));
      }
      live.clear();
      for (size_t j = 0; j < tracker.common().size(); ++j) {
        if (tracker.common()[j] != kSuppressed) live.push_back(j);
      }

      for (size_t i = 0; i < pool.size(); ++i) {
        RowId row = pool.row(i);
        std::vector<ValueCode> expected_codes = QiCodes(relation, row);
        ASSERT_TRUE(std::equal(expected_codes.begin(), expected_codes.end(),
                               pool.codes(i).begin(), pool.codes(i).end()))
            << "pool entry " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(pool.DistanceToAnchor(i)),
                  std::bit_cast<uint64_t>(metric.Distance(anchor, row)))
            << "anchor " << anchor << " row " << row;
        EXPECT_EQ(tracker.CostIncreaseForDivergence(
                      pool.Divergence(tracker.common(), live, i)),
                  tracker.CostIncrease(row))
            << "row " << row;
      }
      for (int taken = 0; taken < 7; ++taken) {
        pool.TakeAt(static_cast<size_t>(rng.NextBounded(pool.size())));
      }
    }
  }
}

TEST(NumericTableTest, OkaAndMondrianPins) {
  Relation popsyn = PopSynFixture(2000);
  Relation stars = StarFixture();
  ExpectPinnedAtEveryWidth(Algo::kOka, SeededOptions(9), popsyn, 5,
                           0xe8a51548496d15a4ull);
  ExpectPinnedAtEveryWidth(Algo::kOka, SeededOptions(9), stars, 3,
                           0x1acced50c8758a43ull);
  ExpectPinnedAtEveryWidth(Algo::kMondrian, {}, popsyn, 5,
                           0x1030a6202e3d2447ull);
  ExpectPinnedAtEveryWidth(Algo::kMondrian, {}, stars, 3,
                           0xe32abefbcc4a6eecull);
}

}  // namespace
}  // namespace diva
