#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"

#include "core/clusterings.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalRelation;
using testing::MedicalSchema;
using testing::MustParse;

/// The bounded enumeration over unsorted `free_targets`.
std::vector<CandidateClustering> EnumerateBounded(
    const Relation& r, const std::vector<RowId>& free_targets, size_t k,
    size_t min_preserve, size_t max_preserve,
    const ClusteringEnumOptions& options) {
  return EnumerateClusteringsQiSorted(r, SortByQiSimilarity(r, free_targets),
                                      k, min_preserve, max_preserve, options);
}

/// Clusterings(c, R): every target row is free, and the bounds are the
/// constraint's own (at least one occurrence preserved).
std::vector<CandidateClustering> Enumerate(const Relation& r,
                                           const DiversityConstraint& c,
                                           size_t k,
                                           ClusteringEnumOptions options = {}) {
  return EnumerateBounded(r, testing::NaiveTargets(r, c), k,
                          std::max<size_t>(1, c.lower()), c.upper(), options);
}

/// Canonical form of a clustering for set comparisons.
std::set<std::set<RowId>> Canonical(const Clustering& clustering) {
  std::set<std::set<RowId>> out;
  for (const Cluster& c : clustering) {
    out.insert(std::set<RowId>(c.begin(), c.end()));
  }
  return out;
}

// ------------------------------------------------ one packed QI order

/// The column-by-column comparator SortByQiSimilarity's packed keys
/// stand in for, kept here as the oracle.
std::vector<RowId> ComparatorOrder(const Relation& r,
                                   std::vector<RowId> rows) {
  const auto& qi = r.schema().qi_indices();
  std::stable_sort(rows.begin(), rows.end(), [&](RowId a, RowId b) {
    for (size_t col : qi) {
      if (r.At(a, col) != r.At(b, col)) return r.At(a, col) < r.At(b, col);
    }
    return a < b;
  });
  return rows;
}

/// A relation of `rows` random rows over three QI columns and one
/// sensitive column, whose QI codes lie in [-1, domain): code -1 is a ★,
/// drawn about one cell in eight.
Relation RandomQiRelation(uint64_t seed, size_t rows, uint64_t domain) {
  auto schema = Schema::Make({
      {"A", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical},
      {"B", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"C", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
  });
  DIVA_CHECK(schema.ok());
  Relation r(schema.value());
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<ValueCode> codes(4);
    for (ValueCode& code : codes) {
      code = rng.NextBounded(8) == 0
                 ? kSuppressed
                 : static_cast<ValueCode>(rng.NextBounded(domain));
    }
    r.AppendRow(codes);
  }
  return r;
}

// Packed keys (first QI column in the top bits, codes + 1 so a star
// sorts first) order rows exactly as the comparator does, on samples
// with ★ cells, at every width. Domains of 2^30 need 93 bits, which
// takes the comparator path; the small domains pack.
TEST(SortByQiSimilarityTest, PackedOrderMatchesTheComparator) {
  for (uint64_t domain : {uint64_t{3}, uint64_t{40}, uint64_t{1} << 30}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      Relation r = RandomQiRelation(seed, 3000, domain);
      Rng rng(seed + 100);
      std::vector<RowId> sample;
      for (RowId row = 0; row < r.NumRows(); ++row) {
        if (rng.NextBounded(3) != 0) sample.push_back(row);
      }
      const std::vector<RowId> expected = ComparatorOrder(r, sample);
      for (size_t threads : {1u, 2u, 8u}) {
        SetParallelThreads(threads);
        EXPECT_EQ(SortByQiSimilarity(r, sample), expected)
            << "domain " << domain << ", seed " << seed << ", threads "
            << threads;
      }
    }
  }
  SetParallelThreads(1);
}

// Marking positions and scanning the order (m·log2(m) > |order|) and
// sorting them (otherwise) pick the same entries in the same order.
TEST(SubsetInOrderTest, MarkedAndSortedSubsetsAgree) {
  Rng rng(7);
  std::vector<RowId> order(5000);
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<RowId>(i);
  rng.Shuffle(&order);
  for (size_t m : {1u, 10u, 300u, 600u, 2500u, 5000u}) {
    std::vector<uint32_t> pool(order.size());
    for (size_t i = 0; i < pool.size(); ++i) pool[i] = static_cast<uint32_t>(i);
    rng.Shuffle(&pool);
    std::vector<uint32_t> positions(pool.begin(), pool.begin() + m);
    std::vector<uint32_t> sorted = positions;
    std::sort(sorted.begin(), sorted.end());
    std::vector<RowId> expected;
    for (uint32_t position : sorted) expected.push_back(order[position]);
    EXPECT_EQ(SubsetInOrder(order, positions), expected) << "m = " << m;
  }
}

TEST(ClusteringsTest, PaperSigma2HasUniqueClustering) {
  // Clusterings(s2, R) = {{t5, t6}} (rows {4, 5}) for k = 2.
  Relation r = MedicalRelation();
  auto s2 = MustParse(*MedicalSchema(), "ETH[African] in [1,3]");
  auto candidates = Enumerate(r, s2, 2);
  ASSERT_FALSE(candidates.empty());
  std::set<std::set<std::set<RowId>>> distinct;
  for (const auto& candidate : candidates) {
    distinct.insert(Canonical(candidate.clusters));
    EXPECT_EQ(candidate.preserved, 2u);
  }
  EXPECT_EQ(distinct.size(), 1u);
  EXPECT_TRUE(distinct.count({{4, 5}}));
}

TEST(ClusteringsTest, PaperSigma1CandidatesAreSubsetsOfTargets) {
  // Clusterings(s1, R) per the paper: {{t8,t9}}, {{t8,t10}}, {{t9,t10}},
  // {{t8,t9,t10}} — all subsets of I_s1 = {7, 8, 9} with >= 2 rows.
  Relation r = MedicalRelation();
  auto s1 = MustParse(*MedicalSchema(), "ETH[Asian] in [2,5]");
  auto candidates = Enumerate(r, s1, 2);
  ASSERT_FALSE(candidates.empty());
  std::set<std::set<std::set<RowId>>> distinct;
  for (const auto& candidate : candidates) {
    for (const Cluster& cluster : candidate.clusters) {
      EXPECT_GE(cluster.size(), 2u);
      for (RowId row : cluster) {
        EXPECT_TRUE(row == 7 || row == 8 || row == 9);
      }
    }
    EXPECT_GE(candidate.preserved, 2u);
    EXPECT_LE(candidate.preserved, 3u);
    distinct.insert(Canonical(candidate.clusters));
  }
  // All four clusterings from the paper are reachable with 3 targets.
  EXPECT_TRUE(distinct.count({{7, 8}}) || distinct.count({{7, 9}}) ||
              distinct.count({{8, 9}}));
  EXPECT_TRUE(distinct.count({{7, 8, 9}}));
}

TEST(ClusteringsTest, PreservedEqualsTotalRows) {
  Relation r = MedicalRelation();
  auto s3 = MustParse(*MedicalSchema(), "CTY[Vancouver] in [2,4]");
  for (const auto& candidate : Enumerate(r, s3, 2)) {
    EXPECT_EQ(candidate.preserved, TotalRows(candidate.clusters));
  }
}

TEST(ClusteringsTest, ClustersWithinCandidateAreDisjoint) {
  Relation r = MedicalRelation();
  auto s3 = MustParse(*MedicalSchema(), "CTY[Vancouver] in [2,4]");
  for (const auto& candidate : Enumerate(r, s3, 2)) {
    std::set<RowId> seen;
    for (const Cluster& cluster : candidate.clusters) {
      for (RowId row : cluster) {
        EXPECT_TRUE(seen.insert(row).second) << "row " << row << " repeated";
      }
    }
  }
}

TEST(ClusteringsTest, InfeasibleLowerBoundYieldsNothing) {
  Relation r = MedicalRelation();
  // Only 3 Asians exist; demanding >= 5 is impossible.
  auto c = MustParse(*MedicalSchema(), "ETH[Asian] in [5,9]");
  EXPECT_TRUE(Enumerate(r, c, 2).empty());
}

TEST(ClusteringsTest, UpperBoundBelowKYieldsNothing) {
  Relation r = MedicalRelation();
  // Preserving any cluster needs >= k = 3 target rows, but upper is 2.
  auto c = MustParse(*MedicalSchema(), "ETH[Asian] in [1,2]");
  EXPECT_TRUE(Enumerate(r, c, 3).empty());
}

TEST(ClusteringsTest, OrderedModeIsMinimalSuppressionFirst) {
  Relation r = MedicalRelation();
  auto s1 = MustParse(*MedicalSchema(), "ETH[Asian] in [2,5]");
  ClusteringEnumOptions options;
  options.ordered = true;
  auto candidates = Enumerate(r, s1, 2, options);
  ASSERT_GE(candidates.size(), 2u);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(candidates[i - 1].preserved, candidates[i].preserved);
  }
}

TEST(ClusteringsTest, CapIsRespected) {
  Relation r = MedicalRelation();
  auto s3 = MustParse(*MedicalSchema(), "CTY[Vancouver] in [2,4]");
  ClusteringEnumOptions options;
  options.max_clusterings = 3;
  auto candidates = Enumerate(r, s3, 2, options);
  EXPECT_LE(candidates.size(), 3u);
}

TEST(ClusteringsTest, DeterministicForSameSeed) {
  Relation r = MedicalRelation();
  auto s3 = MustParse(*MedicalSchema(), "CTY[Vancouver] in [2,4]");
  ClusteringEnumOptions options;
  options.seed = 77;
  auto a = Enumerate(r, s3, 2, options);
  auto b = Enumerate(r, s3, 2, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].clusters, b[i].clusters);
  }
}

TEST(ClusteringsTest, BlockPartitionsHonorK) {
  Relation r = MedicalRelation();
  auto s3 = MustParse(*MedicalSchema(), "CTY[Vancouver] in [2,4]");
  for (size_t k : {2u, 3u, 4u}) {
    for (const auto& candidate : Enumerate(r, s3, k)) {
      for (const Cluster& cluster : candidate.clusters) {
        EXPECT_GE(cluster.size(), k);
      }
    }
  }
}

TEST(ClusteringsTest, MultiAttributeConstraint) {
  Relation r = MedicalRelation();
  auto c = MustParse(*MedicalSchema(), "GEN,ETH[Male,African] in [2,2]");
  auto candidates = Enumerate(r, c, 2);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(Canonical(candidates.front().clusters),
            (std::set<std::set<RowId>>{{4, 5}}));
}

// ---------------------------------------- bounded (dynamic) enumeration

TEST(ClusteringsBoundsTest, RespectsMinAndMaxPreserve) {
  Relation r = MedicalRelation();
  // Free targets: the four Vancouver rows.
  std::vector<RowId> free_targets = {5, 6, 7, 9};
  ClusteringEnumOptions options;
  auto candidates = EnumerateBounded(r, free_targets, 2, 3, 4, options);
  ASSERT_FALSE(candidates.empty());
  for (const auto& candidate : candidates) {
    EXPECT_GE(candidate.preserved, 3u);
    EXPECT_LE(candidate.preserved, 4u);
    for (const Cluster& cluster : candidate.clusters) {
      EXPECT_GE(cluster.size(), 2u);
    }
  }
}

TEST(ClusteringsBoundsTest, EmptyWhenUnmeetable) {
  Relation r = MedicalRelation();
  std::vector<RowId> free_targets = {5, 6};
  ClusteringEnumOptions options;
  // Need at least 3 preserved but only 2 free rows.
  EXPECT_TRUE(EnumerateBounded(r, free_targets, 2, 3, 5, options).empty());
  // Cluster must have >= k = 3 rows but max_preserve is 2.
  EXPECT_TRUE(EnumerateBounded(r, free_targets, 3, 1, 2, options).empty());
  // No free rows at all.
  EXPECT_TRUE(EnumerateBounded(r, {}, 2, 1, 5, options).empty());
}

TEST(ClusteringsBoundsTest, RunAlignedBlocksKeepIdenticalTuplesTogether) {
  // 3 runs of identical tuples (sizes 6, 6, 3). With k = 3, blocks must
  // align to runs: the two 6-runs become uniform blocks; the remainder
  // run of 3 forms its own block. No block mixes runs unless forced.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 6; ++i) rows.push_back({"F", "Asian", "30", "BC", "V", "x"});
  for (int i = 0; i < 6; ++i) rows.push_back({"M", "African", "40", "AB", "C", "x"});
  for (int i = 0; i < 3; ++i) rows.push_back({"F", "Cauc", "50", "MB", "W", "x"});
  auto relation = RelationFromRows(testing::MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());

  std::vector<RowId> all(15);
  for (RowId i = 0; i < 15; ++i) all[i] = i;
  ClusteringEnumOptions options;
  auto candidates = EnumerateBounded(*relation, all, 3, 15, 15, options);
  ASSERT_FALSE(candidates.empty());

  // The first (run-aligned block) candidate: every cluster is uniform.
  const auto& blocks = candidates.front().clusters;
  for (const Cluster& cluster : blocks) {
    EXPECT_GE(cluster.size(), 3u);
    for (RowId row : cluster) {
      for (size_t col : relation->schema().qi_indices()) {
        EXPECT_EQ(relation->At(row, col), relation->At(cluster[0], col))
            << "mixed block";
      }
    }
  }
  EXPECT_EQ(blocks.size(), 3u);
}

TEST(ClusteringsBoundsTest, SmallRunsBufferTogetherAwayFromBigRuns) {
  // One big run (8 rows) plus four small runs of 2. k = 4: the big run
  // must stay pure; small runs combine into mixed buffer blocks.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 8; ++i) rows.push_back({"F", "Asian", "30", "BC", "V", "x"});
  for (int v = 0; v < 4; ++v) {
    for (int i = 0; i < 2; ++i) {
      rows.push_back({"M", "Eth" + std::to_string(v), "40", "AB", "C", "x"});
    }
  }
  auto relation = RelationFromRows(testing::MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  std::vector<RowId> all(16);
  for (RowId i = 0; i < 16; ++i) all[i] = i;
  ClusteringEnumOptions options;
  auto candidates = EnumerateBounded(*relation, all, 4, 16, 16, options);
  ASSERT_FALSE(candidates.empty());
  // Find the run-aligned candidate: one block must be exactly the 8 Asian
  // rows (pure), so their contribution survives.
  bool found_pure_big_run = false;
  for (const Cluster& cluster : candidates.front().clusters) {
    if (cluster.size() == 8) {
      bool all_asian = true;
      for (RowId row : cluster) {
        if (relation->ValueString(row, 1) != "Asian") all_asian = false;
      }
      found_pure_big_run = found_pure_big_run || all_asian;
    }
  }
  EXPECT_TRUE(found_pure_big_run);
}

TEST(ClusteringsBoundsTest, OneBlockVariantsAndPreservedLadderAreFixed) {
  // Twelve rows with pairwise distinct QI projections.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({"F", "Eth" + std::to_string(i), "30", "BC", "V", "x"});
  }
  auto relation = RelationFromRows(testing::MedicalSchema(), rows);
  ASSERT_TRUE(relation.ok());
  std::vector<RowId> all(12);
  for (RowId i = 0; i < 12; ++i) all[i] = i;
  ClusteringEnumOptions options;
  options.max_clusterings = 1000;  // no cap: every tried m must show

  auto row_set = [](const CandidateClustering& candidate) {
    std::set<RowId> out;
    for (const Cluster& cluster : candidate.clusters) {
      out.insert(cluster.begin(), cluster.end());
    }
    return out;
  };

  // (a) Preserving all six of six rows leaves no room for the strided
  // interleaved candidate, so every candidate is a block partition of a
  // subset. Each one with more than one block is followed by its
  // one-block variant over the same rows.
  std::vector<RowId> six(all.begin(), all.begin() + 6);
  auto full = EnumerateBounded(*relation, six, 2, 6, 6, options);
  size_t multi_block = 0;
  for (size_t i = 0; i < full.size(); ++i) {
    if (full[i].clusters.size() <= 1) continue;
    ++multi_block;
    ASSERT_LT(i + 1, full.size()) << "partition " << i << " has no variant";
    EXPECT_EQ(full[i + 1].clusters.size(), 1u) << "after candidate " << i;
    EXPECT_EQ(row_set(full[i + 1]), row_set(full[i]))
        << "after candidate " << i;
    EXPECT_EQ(full[i + 1].preserved, full[i].preserved);
  }
  EXPECT_GT(multi_block, 0u);

  // (b) The preserved counts tried, in order: max(k, min_preserve), +k,
  // +2k, then the largest admissible m when that is larger.
  auto ladder = [&](size_t k, size_t min_preserve, size_t max_preserve) {
    std::vector<size_t> tried;
    for (const CandidateClustering& candidate : EnumerateBounded(
             *relation, all, k, min_preserve, max_preserve, options)) {
      if (tried.empty() || tried.back() != candidate.preserved) {
        tried.push_back(candidate.preserved);
      }
    }
    return tried;
  };
  EXPECT_EQ(ladder(2, 1, 100), (std::vector<size_t>{2, 4, 6, 12}));
  EXPECT_EQ(ladder(2, 3, 100), (std::vector<size_t>{3, 5, 7, 12}));
  EXPECT_EQ(ladder(4, 1, 100), (std::vector<size_t>{4, 8, 12}));
  EXPECT_EQ(ladder(2, 1, 5), (std::vector<size_t>{2, 4, 5}));
}

}  // namespace
}  // namespace diva
