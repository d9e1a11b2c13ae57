#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>
#include <memory>
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

/// Rows drawn from 12 QI patterns, with one row in six perturbed in one
/// column: most grow steps find an exact duplicate (d == 0), and the
/// perturbed rows interleave d > 0 picks between them.
Relation DuplicateFixture() {
  auto schema = Schema::Make({
      {"A", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"N", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"B", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK(schema.ok());
  Rng rng(77);
  std::vector<std::vector<std::string>> patterns;
  for (int p = 0; p < 12; ++p) {
    patterns.push_back({"a" + std::to_string(rng.NextBounded(5)),
                        std::to_string(30 + rng.NextBounded(20)),
                        "b" + std::to_string(rng.NextBounded(4))});
  }
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 420; ++i) {
    std::vector<std::string> row = patterns[rng.NextBounded(patterns.size())];
    if (rng.NextBounded(6) == 0) {
      size_t col = rng.NextBounded(3);
      row[col] = (col == 1 ? "6" : "x") + std::to_string(rng.NextBounded(3));
    }
    row.push_back("s" + std::to_string(rng.NextBounded(3)));
    rows.push_back(std::move(row));
  }
  auto relation = RelationFromRows(*schema, rows);
  DIVA_CHECK(relation.ok());
  return std::move(relation).value();
}

/// No two rows share their QI values: N is unique per row.
Relation DistinctFixture() {
  auto schema = Schema::Make({
      {"A", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"N", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"B", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK(schema.ok());
  Rng rng(78);
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({"a" + std::to_string(rng.NextBounded(4)),
                    std::to_string((i * 37) % 300),
                    "b" + std::to_string(rng.NextBounded(6)),
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
/// hashes to `expected`, both in place and gathered: over a SelectRows
/// copy in local ids mapped back, the form RunDiva's baseline phase
/// calls. On a strided subset the two forms must agree as well.
void ExpectPinnedAtEveryWidth(Algo algo, const AnonymizerOptions& options,
                              const Relation& relation, size_t k,
                              uint64_t expected) {
  size_t saved = ParallelThreads();
  std::vector<RowId> rows = AllRows(relation);
  std::vector<RowId> subset;
  std::ranges::copy_if(rows, std::back_inserter(subset),
                       [](RowId row) { return row % 3 != 1; });
  auto build = [&](const std::vector<RowId>& ids, bool gathered) {
    std::vector<RowId> local(ids.size());
    std::iota(local.begin(), local.end(), 0);
    std::unique_ptr<Anonymizer> anonymizer = MakeAlgo(algo, options);
    Result<Clustering> clusters =
        gathered ? anonymizer->BuildClusters(relation.SelectRows(ids), local, k)
                 : anonymizer->BuildClusters(relation, ids, k);
    EXPECT_TRUE(clusters.ok()) << clusters.status().ToString();
    if (!clusters.ok()) return uint64_t{0};
    for (Cluster& cluster : *clusters) {
      for (RowId& row : cluster) row = gathered ? ids[row] : row;
    }
    return HashClusters(*clusters);
  };
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    EXPECT_EQ(build(rows, false), expected)
        << AlgoName(algo) << " k=" << k << " threads=" << threads;
    EXPECT_EQ(build(rows, true), expected)
        << AlgoName(algo) << " gathered, k=" << k << " threads=" << threads;
    EXPECT_EQ(build(subset, true), build(subset, false))
        << AlgoName(algo) << " subset, k=" << k << " threads=" << threads;
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

// Exact grow scans that stop at d == 0 resume the cluster's next scan
// where they stopped. On mostly-duplicate rows most grow steps resume; on
// distinct rows only steps after the unique column has diverged can.
// Recorded with every scan starting at index 0.
TEST(KMemberKernelTest, DuplicateRowsResumePins) {
  Relation relation = DuplicateFixture();
  const std::pair<size_t, uint64_t> pins[] = {
      {3, 0xba9c6b773086f61bull},
      {8, 0x2e178f3ef849c905ull},
  };
  for (const auto& [k, expected] : pins) {
    ExpectPinnedAtEveryWidth(Algo::kKMember, SeededOptions(13), relation, k,
                             expected);
  }
}

TEST(KMemberKernelTest, DistinctRowsPins) {
  Relation relation = DistinctFixture();
  ExpectPinnedAtEveryWidth(Algo::kKMember, SeededOptions(17), relation, 4,
                           0xdaaf23ba755d07b4ull);
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

/// `columns` categorical QIs and a sensitive column. The first `domain`
/// rows list values 0..domain-1 in every column, so each column's codes
/// equal its values and its dictionary has exactly `domain` entries. Each
/// later row draws its cells from the two lowest values, the two highest
/// or all of them, with one cell in ten `*`: the widest lane values are
/// common, and a low row differs from a high row in every column.
Relation PackingFixture(size_t columns, size_t domain) {
  std::vector<Attribute> attributes;
  for (size_t c = 0; c < columns; ++c) {
    attributes.push_back({"Q" + std::to_string(c),
                          AttributeRole::kQuasiIdentifier,
                          AttributeKind::kCategorical});
  }
  attributes.push_back(
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical});
  auto schema = Schema::Make(std::move(attributes));
  DIVA_CHECK(schema.ok());
  Rng rng(columns * 1000 + domain);
  std::vector<std::vector<std::string>> rows;
  for (size_t r = 0; r < domain + 150; ++r) {
    std::vector<std::string> row;
    uint64_t mode = rng.NextBounded(3);
    for (size_t c = 0; c < columns; ++c) {
      uint64_t value = mode == 0   ? rng.NextBounded(2)
                       : mode == 1 ? domain - 1 - rng.NextBounded(2)
                                   : rng.NextBounded(domain);
      if (r < domain) {
        row.push_back("v" + std::to_string(r));
      } else if (rng.NextBounded(10) == 0) {
        row.push_back("*");
      } else {
        row.push_back("v" + std::to_string(value));
      }
    }
    row.push_back("s" + std::to_string(rng.NextBounded(3)));
    rows.push_back(std::move(row));
  }
  auto relation = RelationFromRows(*schema, rows);
  DIVA_CHECK(relation.ok());
  return std::move(relation).value();
}

// The kernel against DistanceMetric::Distance and
// ClusterCostTracker::CostIncrease, on a pool that shrinks between
// rounds: the codes must track every swap-remove, the distance must be
// the metric's double bit-for-bit, and the packed divergence must give
// the tracker's exact ★ increase. The fixtures cover ★ cells in pool
// rows and in common(), a row spanning two words (17 QIs at 5-bit
// lanes), and the largest dictionary on both sides of a lane-width step
// (31 | 32 and 63 | 64 entries: 5 | 6 and 6 | 7 bits).
TEST(KMemberKernelTest, KernelMatchesMetricAndTrackerBitForBit) {
  std::vector<Relation> relations;
  relations.push_back(PopSynFixture(1500));
  relations.push_back(StarFixture());
  relations.push_back(PackingFixture(17, 6));
  for (size_t domain : {31, 32, 63, 64}) {
    relations.push_back(PackingFixture(13, domain));
    for (size_t col = 0; col < 13; ++col) {
      ASSERT_EQ(relations.back().dictionary(col).size(), domain);
    }
  }
  for (const Relation& relation : relations) {
    DistanceMetric metric(relation);
    std::vector<RowId> rows = AllRows(relation);
    KMemberPool pool(relation, metric, rows);
    Rng rng(99);
    size_t stars_in_common = 0;
    while (pool.size() > 8) {
      RowId anchor =
          static_cast<RowId>(rng.NextBounded(relation.NumRows()));
      pool.SetAnchor(QiCodes(relation, anchor));

      ClusterCostTracker tracker(relation);
      tracker.Reset(static_cast<RowId>(rng.NextBounded(relation.NumRows())));
      for (uint64_t n = rng.NextBounded(6); n > 0; --n) {
        tracker.Add(static_cast<RowId>(rng.NextBounded(relation.NumRows())));
      }
      pool.SetCommon(tracker.common());
      stars_in_common += std::ranges::count(tracker.common(), kSuppressed);

      for (size_t i = 0; i < pool.size(); ++i) {
        RowId row = pool.row(i);
        std::vector<ValueCode> expected_codes = QiCodes(relation, row);
        ASSERT_TRUE(std::equal(expected_codes.begin(), expected_codes.end(),
                               pool.codes(i).begin(), pool.codes(i).end()))
            << "pool entry " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(pool.DistanceToAnchor(i)),
                  std::bit_cast<uint64_t>(metric.Distance(anchor, row)))
            << "anchor " << anchor << " row " << row;
        EXPECT_EQ(tracker.CostIncreaseForDivergence(pool.Divergence(i)),
                  tracker.CostIncrease(row))
            << "row " << row;
      }
      for (int taken = 0; taken < 7; ++taken) {
        pool.TakeAt(static_cast<size_t>(rng.NextBounded(pool.size())));
      }
    }
    EXPECT_GT(stars_in_common, 0u);
  }
}

/// The one-row scans KMemberPool's exact kernels replaced, kept as their
/// oracle: the first maximum of DistanceToAnchor, and the first minimum
/// of Divergence from `resume`'s start and best, stopping at d == 0.
size_t OneRowFurthest(const KMemberPool& pool) {
  double best_distance = -1.0;
  size_t best_index = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    double d = pool.DistanceToAnchor(i);
    if (d > best_distance) {
      best_distance = d;
      best_index = i;
    }
  }
  return best_index;
}

size_t OneRowLeastDivergent(const KMemberPool& pool,
                            KMemberPool::GrowResume* resume) {
  KMemberPool::GrowResume from = *resume;
  *resume = KMemberPool::GrowResume{};
  size_t best_divergence = from.best_divergence;
  size_t best_index = from.best_index;
  for (size_t i = from.start; i < pool.size(); ++i) {
    size_t d = pool.Divergence(i);
    if (d < best_divergence) {
      if (d == 0) {
        *resume = {i, best_divergence, best_index};
        return i;
      }
      best_divergence = d;
      best_index = i;
    }
  }
  return best_index;
}

/// Both kernels against the one-row loops on the pool as it stands (the
/// anchor and common set by the caller). The grow scan runs from every
/// start, fresh and carrying the first best of the entries before the
/// start, as a resumed scan does; a carried best of d == 0 is skipped,
/// since a scan stops there and never resumes past it.
void ExpectScansMatchOneRowLoop(const KMemberPool& pool,
                                const std::string& where) {
  EXPECT_EQ(pool.FurthestFromAnchor(), OneRowFurthest(pool))
      << where << " size " << pool.size();
  KMemberPool::GrowResume carried;
  for (size_t start = 0; start <= pool.size(); ++start) {
    carried.start = start;
    KMemberPool::GrowResume fresh;
    fresh.start = start;
    for (const KMemberPool::GrowResume& from : {fresh, carried}) {
      if (from.best_divergence == 0) continue;
      KMemberPool::GrowResume expected = from;
      KMemberPool::GrowResume actual = from;
      size_t expected_index = OneRowLeastDivergent(pool, &expected);
      EXPECT_EQ(pool.LeastDivergent(&actual), expected_index)
          << where << " size " << pool.size() << " start " << start;
      EXPECT_EQ(actual.start, expected.start) << where << " start " << start;
      EXPECT_EQ(actual.best_divergence, expected.best_divergence)
          << where << " start " << start;
      EXPECT_EQ(actual.best_index, expected.best_index)
          << where << " start " << start;
    }
    if (start < pool.size()) {
      size_t d = pool.Divergence(start);
      if (d < carried.best_divergence) {
        carried.best_divergence = d;
        carried.best_index = start;
      }
    }
  }
}

/// One categorical QI per character of `reference` and of each pattern
/// ('*' is a ★ input cell), plus a sensitive column. Row 0 is
/// `reference`; rows 1.. are `patterns`. A pool over rows 1.. anchored
/// and grown against row 0 has DistanceToAnchor = the count of columns
/// where a pattern differs from `reference` or either holds '*', and
/// Divergence = the count of columns where `reference` is not '*' and
/// the pattern differs.
struct PatternPool {
  PatternPool(const std::string& reference,
              const std::vector<std::string>& patterns)
      : relation(MakeRelation(reference, patterns)), metric(relation) {
    std::vector<RowId> rows(patterns.size());
    std::iota(rows.begin(), rows.end(), RowId{1});
    pool = std::make_unique<KMemberPool>(relation, metric, rows);
    std::vector<ValueCode> codes = QiCodes(relation, 0);
    pool->SetAnchor(codes);
    pool->SetCommon(codes);
  }

  static Relation MakeRelation(const std::string& reference,
                               const std::vector<std::string>& patterns) {
    std::vector<Attribute> attributes;
    for (size_t c = 0; c < reference.size(); ++c) {
      attributes.push_back({"Q" + std::to_string(c),
                            AttributeRole::kQuasiIdentifier,
                            AttributeKind::kCategorical});
    }
    attributes.push_back(
        {"S", AttributeRole::kSensitive, AttributeKind::kCategorical});
    auto schema = Schema::Make(std::move(attributes));
    DIVA_CHECK(schema.ok());
    std::vector<std::vector<std::string>> rows;
    auto add = [&](const std::string& pattern) {
      DIVA_CHECK(pattern.size() == reference.size());
      std::vector<std::string> row;
      for (char c : pattern) row.push_back(std::string(1, c));
      row.push_back("s");
      rows.push_back(std::move(row));
    };
    add(reference);
    for (const std::string& pattern : patterns) add(pattern);
    auto relation = RelationFromRows(*schema, rows);
    DIVA_CHECK(relation.ok());
    return std::move(relation).value();
  }

  Relation relation;
  DistanceMetric metric;
  std::unique_ptr<KMemberPool> pool;
};

// The exact seed and grow kernels against the one-row loops they
// replaced. Hand-built pools put ties at the maximum distance inside one
// four-row block, across a block boundary and in the tail; make every
// distance tie; follow a best divergence of 1 with a later exact match
// or with none; hide a difference in a row's second word; and put ★ in
// common(). Each then shrinks through TakeAt, covering pool sizes 1-9
// around the block. A sweep over shrinking pools of four fixtures
// compares every grow start, fresh and resumed.
TEST(KMemberKernelTest, ExactScansMatchTheOneRowLoop) {
  struct Case {
    const char* what;
    std::string reference;
    std::vector<std::string> patterns;
    size_t furthest;       // FurthestFromAnchor on the full pool
    size_t least;          // LeastDivergent from a fresh resume
    size_t resume_best_d;  // the resume it leaves (0: reset)
    size_t resume_best_i;
  };
  const size_t kReset = 0;
  const Case cases[] = {
      {"tie inside one block", "0000",
       {"0001", "1111", "1111", "0011", "0111"}, 1, 0, kReset, 0},
      {"tie across a block boundary", "0000",
       {"0000", "0001", "0011", "1111", "1111", "0111", "0001", "0000"}, 3,
       0, kReset, 0},
      {"tie in the tail", "0000",
       {"0001", "0011", "0111", "0011", "1111", "0001", "1111"}, 4, 0,
       kReset, 0},
      {"every distance ties", "0000",
       {"0101", "0101", "0101", "0101", "0101", "0101", "0101", "0101",
        "0101"},
       0, 0, kReset, 0},
      {"best 1, then a later exact match", "0000",
       {"0111", "0011", "0001", "0111", "1001", "0000", "0001"}, 0, 5, 1,
       2},
      {"best 2 then 1, no exact match", "0000",
       {"0111", "0011", "0111", "0001", "0011", "0101"}, 0, 3, kReset, 0},
      {"a second-word difference before the exact match",
       "00000000000000000",
       {"11111111111111111", "00000000000001000", "00000000000000100",
        "00000000000000000", "00000000000000010"},
       0, 3, 1, 1},
      {"* in common()", "0*0*",
       {"1111", "1010", "0110", "0101", "0*0*", "1*1*"}, 0, 3, 1, 2},
  };
  for (const Case& c : cases) {
    PatternPool p(c.reference, c.patterns);
    KMemberPool& pool = *p.pool;
    EXPECT_EQ(pool.FurthestFromAnchor(), c.furthest) << c.what;
    KMemberPool::GrowResume resume;
    EXPECT_EQ(pool.LeastDivergent(&resume), c.least) << c.what;
    if (c.resume_best_d == kReset) {
      EXPECT_EQ(resume.start, 0u) << c.what;
      EXPECT_EQ(resume.best_divergence, std::numeric_limits<size_t>::max())
          << c.what;
    } else {
      EXPECT_EQ(resume.start, c.least) << c.what;
      EXPECT_EQ(resume.best_divergence, c.resume_best_d) << c.what;
      EXPECT_EQ(resume.best_index, c.resume_best_i) << c.what;
    }
    // Shrink from the middle, so the swap-remove reorders the tail.
    while (!pool.empty()) {
      ExpectScansMatchOneRowLoop(pool, c.what);
      pool.TakeAt(pool.size() / 2);
    }
  }

  std::vector<Relation> relations;
  relations.push_back(PopSynFixture(300));
  relations.push_back(StarFixture());
  relations.push_back(PackingFixture(17, 6));
  relations.push_back(DuplicateFixture());
  for (const Relation& relation : relations) {
    DistanceMetric metric(relation);
    std::vector<RowId> rows = AllRows(relation);
    KMemberPool pool(relation, metric, rows);
    Rng rng(7);
    while (!pool.empty()) {
      pool.SetAnchor(QiCodes(relation, pool.row(rng.NextBounded(pool.size()))));
      ClusterCostTracker tracker(relation);
      tracker.Reset(pool.row(rng.NextBounded(pool.size())));
      for (uint64_t n = rng.NextBounded(4); n > 0; --n) {
        tracker.Add(static_cast<RowId>(rng.NextBounded(relation.NumRows())));
      }
      pool.SetCommon(tracker.common());
      ExpectScansMatchOneRowLoop(pool, "sweep");
      for (size_t taken = pool.size() > 9 ? 7 : 1; taken > 0; --taken) {
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
