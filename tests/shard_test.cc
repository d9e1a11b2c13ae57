// The sharding subsystem's headline guarantee, asserted end to end: the
// DivaOptions::shard flag chooses only *how* an instance executes
// (concurrent TaskGroup work items vs the same per-shard computations
// inline), never *what* it computes — CSV, report, and audit telemetry
// are byte-identical with sharding on or off and at every thread width —
// and a one-shard plan searches exactly as one search over the whole
// relation. See core/shard.h for why this holds by construction. Unit
// coverage for the plan itself (union-find, component ordering, residual
// accounting) rides along.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/parallel.h"
#include "constraint/generator.h"
#include "core/constraint_graph.h"
#include "core/diva.h"
#include "core/shard.h"
#include "datagen/profiles.h"
#include "relation/csv.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MakeWorkload;
using testing::MedicalRelation;
using testing::MedicalSchema;

// ---------------------------------------------------------------------------
// UnionFind

TEST(UnionFindTest, StartsAsAllSingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(uf.Find(i), i);
}

TEST(UnionFindTest, ChainCollapsesToOneSet) {
  UnionFind uf(6);
  for (size_t i = 0; i + 1 < 6; ++i) uf.Union(i, i + 1);
  EXPECT_EQ(uf.NumSets(), 1u);
  const size_t root = uf.Find(0);
  for (size_t i = 1; i < 6; ++i) EXPECT_EQ(uf.Find(i), root);
}

TEST(UnionFindTest, RedundantUnionsAreNoOps) {
  UnionFind uf(4);
  uf.Union(0, 1);
  uf.Union(2, 3);
  EXPECT_EQ(uf.NumSets(), 2u);
  uf.Union(1, 0);
  uf.Union(3, 2);
  EXPECT_EQ(uf.NumSets(), 2u);
  EXPECT_NE(uf.Find(0), uf.Find(2));
  uf.Union(0, 3);
  EXPECT_EQ(uf.NumSets(), 1u);
  EXPECT_EQ(uf.Find(1), uf.Find(2));
}

// ---------------------------------------------------------------------------
// ComputeShardPlan

/// Builds a graph from target lists alone; adjacency is derived from
/// target overlap exactly as BuildConstraintGraph would.
ConstraintGraph GraphFromTargets(std::vector<std::vector<RowId>> targets) {
  ConstraintGraph graph;
  graph.targets = std::move(targets);
  graph.adjacency.resize(graph.targets.size());
  for (size_t i = 0; i < graph.targets.size(); ++i) {
    for (size_t j = i + 1; j < graph.targets.size(); ++j) {
      bool overlap = false;
      for (RowId a : graph.targets[i]) {
        for (RowId b : graph.targets[j]) overlap = overlap || a == b;
      }
      if (overlap) {
        graph.adjacency[i].push_back(j);
        graph.adjacency[j].push_back(i);
      }
    }
  }
  return graph;
}

TEST(ShardPlanTest, ZeroConstraintsIsPureResidual) {
  ShardPlan plan = ComputeShardPlan(ConstraintGraph{}, 7);
  EXPECT_TRUE(plan.shards.empty());
  EXPECT_EQ(plan.residual_rows, 7u);
  EXPECT_EQ(plan.MaxShardRows(), 0u);
  EXPECT_FALSE(plan.Effective());
}

TEST(ShardPlanTest, AllSingletonsShardIndependently) {
  ShardPlan plan =
      ComputeShardPlan(GraphFromTargets({{0, 1}, {4, 5}, {2, 3}}), 8);
  ASSERT_EQ(plan.shards.size(), 3u);
  EXPECT_TRUE(plan.Effective());
  // Component index = rank of the smallest member constraint index.
  EXPECT_EQ(plan.shards[0].constraints, std::vector<size_t>{0});
  EXPECT_EQ(plan.shards[1].constraints, std::vector<size_t>{1});
  EXPECT_EQ(plan.shards[2].constraints, std::vector<size_t>{2});
  EXPECT_EQ(plan.shards[0].rows, (std::vector<RowId>{0, 1}));
  EXPECT_EQ(plan.shards[1].rows, (std::vector<RowId>{4, 5}));
  EXPECT_EQ(plan.shards[2].rows, (std::vector<RowId>{2, 3}));
  EXPECT_EQ(plan.residual_rows, 2u);  // rows 6, 7
  EXPECT_EQ(plan.MaxShardRows(), 2u);
}

TEST(ShardPlanTest, SingleGiantComponentIsNotEffective) {
  // A chain: 0-1 overlap on row 2, 1-2 overlap on row 4 — transitively
  // one component even though constraints 0 and 2 never touch.
  ShardPlan plan =
      ComputeShardPlan(GraphFromTargets({{0, 2}, {2, 4}, {4, 6}}), 8);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_FALSE(plan.Effective());
  EXPECT_EQ(plan.shards[0].constraints, (std::vector<size_t>{0, 1, 2}));
  // The union of overlapping targets, ascending, deduplicated.
  EXPECT_EQ(plan.shards[0].rows, (std::vector<RowId>{0, 2, 4, 6}));
  EXPECT_EQ(plan.residual_rows, 4u);
}

TEST(ShardPlanTest, OverlappingChainsSplitAtTheGap) {
  // Two chains of two constraints each; the gap between rows 3 and 10
  // splits them. Constraint order interleaves the chains to prove shard
  // membership follows connectivity, not index adjacency.
  ShardPlan plan = ComputeShardPlan(
      GraphFromTargets({{0, 1}, {10, 11}, {1, 2, 3}, {11, 12}}), 14);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_TRUE(plan.Effective());
  EXPECT_EQ(plan.shards[0].constraints, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(plan.shards[1].constraints, (std::vector<size_t>{1, 3}));
  EXPECT_EQ(plan.shards[0].rows, (std::vector<RowId>{0, 1, 2, 3}));
  EXPECT_EQ(plan.shards[1].rows, (std::vector<RowId>{10, 11, 12}));
  EXPECT_EQ(plan.MaxShardRows(), 4u);
  EXPECT_EQ(plan.residual_rows, 14u - 7u);
}

TEST(ShardPlanTest, EmptyResidualWhenEveryRowIsTargeted) {
  ShardPlan plan = ComputeShardPlan(GraphFromTargets({{0, 1, 2}, {3, 4}}), 5);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.residual_rows, 0u);
}

TEST(ShardPlanTest, MatchesTheBuiltGraphOnTheMedicalExample) {
  // ETH[Asian] (t8-t10) and PRV[AB] (t1-t3) are disjoint; the real
  // BuildConstraintGraph must decompose them into two components.
  Relation relation = MedicalRelation();
  auto schema = MedicalSchema();
  auto constraints = ParseConstraintSet(
      *schema, "ETH[Asian] in [2,5]\nPRV[AB] in [1,3]\n");
  ASSERT_TRUE(constraints.ok());
  ConstraintGraph graph = BuildConstraintGraph(relation, *constraints);
  ShardPlan plan = ComputeShardPlan(graph, relation.NumRows());
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].rows, (std::vector<RowId>{7, 8, 9}));
  EXPECT_EQ(plan.shards[1].rows, (std::vector<RowId>{0, 1, 2}));
  EXPECT_EQ(plan.residual_rows, 4u);
}

TEST(ShardSeedTest, StreamsAreDistinctAndDeterministic) {
  EXPECT_EQ(ShardSeed(42, 0), ShardSeed(42, 0));
  EXPECT_NE(ShardSeed(42, 0), ShardSeed(42, 1));
  EXPECT_NE(ShardSeed(42, 0), ShardSeed(43, 0));
  // The derived stream must not echo the base seed into any shard.
  for (size_t s = 0; s < 8; ++s) EXPECT_NE(ShardSeed(42, s), 42u);
}

// ---------------------------------------------------------------------------
// Shard equivalence: shard on/off x thread width, byte for byte

/// One full DIVA run reduced to everything the shard flag could
/// plausibly perturb: published CSV bytes, the search/report scalars,
/// the shard accounting itself, and every deterministic-scope counter
/// that moved (spans and counters merge in shard-index order, so these
/// pin the telemetry path too).
struct ShardFingerprint {
  std::string csv;
  bool complete = false;
  uint64_t coloring_steps = 0;
  uint64_t backtracks = 0;
  size_t sigma_rows = 0;
  size_t repair_cells = 0;
  size_t shards = 0;
  size_t residual_rows = 0;
  std::vector<size_t> unsatisfied;
  std::vector<std::string> counters;

  bool operator==(const ShardFingerprint&) const = default;
};

std::vector<std::string> MovedDeterministicCounters(
    const std::vector<counters::Sample>& delta) {
  std::vector<std::string> moved;
  for (const counters::Sample& sample :
       counters::FilterScope(delta, counters::Scope::kDeterministic)) {
    if (sample.value == 0 && sample.sum == 0) continue;
    moved.push_back(sample.name + "=" + std::to_string(sample.value) + "/" +
                    std::to_string(sample.sum));
  }
  return moved;
}

ShardFingerprint FingerprintRun(const Relation& relation,
                                const ConstraintSet& constraints, size_t k,
                                bool shard, size_t threads) {
  DivaOptions options;
  options.k = k;
  options.shard = shard;
  options.threads = threads;
  options.audit = true;
  auto result = RunDiva(relation, constraints, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ShardFingerprint print;
  if (!result.ok()) return print;
  std::ostringstream csv;
  EXPECT_TRUE(WriteCsv(result->relation, csv).ok());
  print.csv = csv.str();
  print.complete = result->report.clustering_complete;
  print.coloring_steps = result->report.coloring_steps;
  print.backtracks = result->report.backtracks;
  print.sigma_rows = result->report.sigma_rows;
  print.repair_cells = result->report.repair_cells;
  print.shards = result->report.shards;
  print.residual_rows = result->report.residual_rows;
  print.unsatisfied = result->report.unsatisfied;
  print.counters = MovedDeterministicCounters(result->report.counters);
  return print;
}

TEST(ShardEquivalenceTest, MultiComponentMedicalIsByteIdentical) {
  Relation relation = MedicalRelation();
  auto schema = MedicalSchema();
  auto constraints = ParseConstraintSet(
      *schema, "ETH[Asian] in [2,5]\nPRV[AB] in [1,3]\n");
  ASSERT_TRUE(constraints.ok());

  ShardFingerprint baseline =
      FingerprintRun(relation, *constraints, 2, /*shard=*/false, /*threads=*/1);
  EXPECT_FALSE(baseline.csv.empty());
  EXPECT_EQ(baseline.shards, 2u);
  EXPECT_EQ(baseline.residual_rows, 4u);
  for (bool shard : {false, true}) {
    for (size_t threads : {1u, 2u, 8u}) {
      ShardFingerprint run =
          FingerprintRun(relation, *constraints, 2, shard, threads);
      EXPECT_EQ(run, baseline)
          << "shard = " << shard << ", threads = " << threads;
    }
  }
  SetParallelThreads(1);
}

TEST(ShardEquivalenceTest, OverlappingChainPlusIslandIsByteIdentical) {
  // ETH[Asian] and CTY[Vancouver] overlap (t8, t10), chaining into one
  // component; PRV[AB] is an island — a mixed plan with a multi-
  // constraint shard and a singleton shard.
  Relation relation = MedicalRelation();
  auto schema = MedicalSchema();
  auto constraints = ParseConstraintSet(*schema,
                                        "ETH[Asian] in [2,5]\n"
                                        "CTY[Vancouver] in [2,4]\n"
                                        "PRV[AB] in [1,3]\n");
  ASSERT_TRUE(constraints.ok());

  ShardFingerprint baseline =
      FingerprintRun(relation, *constraints, 2, /*shard=*/false, /*threads=*/1);
  EXPECT_EQ(baseline.shards, 2u);
  for (bool shard : {false, true}) {
    for (size_t threads : {1u, 2u, 8u}) {
      ShardFingerprint run =
          FingerprintRun(relation, *constraints, 2, shard, threads);
      EXPECT_EQ(run, baseline)
          << "shard = " << shard << ", threads = " << threads;
    }
  }
  SetParallelThreads(1);
}

TEST(ShardEquivalenceTest, SingleComponentIgnoresTheShardFlag) {
  // The paper's example constraints form one component: the one-shard
  // plan colors with the run's own seeds, and the baseline pools every
  // uncovered row. The flag must be a strict no-op on those bytes
  // (determinism_test and diva_test's one-component pins fix them).
  Relation relation = MedicalRelation();
  ConstraintSet constraints =
      testing::MedicalConstraints(*testing::MedicalSchema());
  ShardFingerprint off =
      FingerprintRun(relation, constraints, 2, /*shard=*/false, /*threads=*/1);
  EXPECT_EQ(off.shards, 1u);
  ShardFingerprint on =
      FingerprintRun(relation, constraints, 2, /*shard=*/true, /*threads=*/8);
  EXPECT_EQ(on, off);
  SetParallelThreads(1);
}

bool SameOutcome(const ColoringOutcome& a, const ColoringOutcome& b) {
  return a.complete == b.complete &&
         a.budget_exhausted == b.budget_exhausted &&
         a.assignment == b.assignment && a.preserved == b.preserved &&
         a.chosen_clusters == b.chosen_clusters && a.steps == b.steps &&
         a.backtracks == b.backtracks;
}

/// A connected instance: the connected 3,000-row Pop-Syn instance of
/// DivaOneComponentPinTest (residual rows, and a search that needs a
/// restart), or the paper's example plus ETH[Caucasian], which together
/// target every row.
struct ConnectedInstance {
  const char* name;
  Relation relation;
  ConstraintSet constraints;
  size_t k;
  bool residual;
};

std::vector<ConnectedInstance> ConnectedInstances() {
  std::vector<ConnectedInstance> instances;
  ProfileOptions profile_options;
  profile_options.num_rows = 3000;
  profile_options.seed = 7;
  auto popsyn = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  DIVA_CHECK(popsyn.ok());
  ConstraintGenOptions generator_options;
  generator_options.count = 6;
  generator_options.target_conflict = 0.9;
  generator_options.seed = 7;
  auto popsyn_constraints = GenerateConstraints(*popsyn, generator_options);
  DIVA_CHECK(popsyn_constraints.ok());
  instances.push_back({"popsyn_3000", std::move(popsyn).value(),
                       std::move(popsyn_constraints).value(), 10, true});

  auto medical_constraints =
      ParseConstraintSet(*MedicalSchema(),
                         "ETH[Asian] in [2,5]\n"
                         "ETH[African] in [1,3]\n"
                         "CTY[Vancouver] in [2,4]\n"
                         "ETH[Caucasian] in [2,5]\n");
  DIVA_CHECK(medical_constraints.ok());
  instances.push_back({"medical_all_rows", MedicalRelation(),
                       std::move(medical_constraints).value(), 2, false});
  return instances;
}

TEST(ShardEquivalenceTest, OneShardPlanMatchesTheWholeInstanceSearch) {
  // A lone shard keeps the run's seed and enumeration seed and colors a
  // gathered copy of its rows: the merged outcome must be the one
  // search over the whole relation, for every strategy and width.
  for (const ConnectedInstance& instance : ConnectedInstances()) {
    ConstraintGraph graph =
        BuildConstraintGraph(instance.relation, instance.constraints);
    ShardPlan plan = ComputeShardPlan(graph, instance.relation.NumRows());
    ASSERT_EQ(plan.shards.size(), 1u) << instance.name;
    EXPECT_EQ(plan.residual_rows > 0, instance.residual) << instance.name;
    for (SelectionStrategy strategy :
         {SelectionStrategy::kBasic, SelectionStrategy::kMinChoice,
          SelectionStrategy::kMaxFanOut}) {
      ColoringOptions options;
      options.k = instance.k;
      options.strategy = strategy;
      options.seed = 11;
      options.enumeration.seed = 23;
      options.enumeration.ordered = strategy != SelectionStrategy::kBasic;
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(std::string(instance.name) + " " +
                     SelectionStrategyToString(strategy) +
                     " threads=" + std::to_string(threads));
        SetParallelThreads(threads);
        ColoringOutcome whole = ColorConstraints(
            instance.relation, instance.constraints, graph, options);
        auto sharded = RunShardedColoring(
            ColumnStore::FromRelation(instance.relation),
            instance.constraints, graph, plan, options, threads);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        EXPECT_TRUE(SameOutcome(*sharded, whole));
        EXPECT_GT(whole.NumColored(), 0u);
      }
    }
  }
  SetParallelThreads(1);
}

/// The fuzz corpus leg: every workload the differential suite draws
/// must fingerprint identically in all six execution modes. Instances
/// here span single-component plans, multi-component plans, and
/// zero-constraint (pure residual) runs — whatever the seed yields.
class ShardCorpusTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardCorpusTest, ShardFlagAndThreadWidthNeverChangeTheBytes) {
  testing::FuzzWorkload workload = MakeWorkload(GetParam());
  ShardFingerprint baseline =
      FingerprintRun(workload.relation, workload.constraints, workload.k,
                     /*shard=*/false, /*threads=*/1);
  EXPECT_FALSE(baseline.csv.empty());
  for (bool shard : {false, true}) {
    for (size_t threads : {1u, 2u, 8u}) {
      if (!shard && threads == 1) continue;  // the baseline itself
      ShardFingerprint run = FingerprintRun(
          workload.relation, workload.constraints, workload.k, shard, threads);
      EXPECT_EQ(run, baseline)
          << "shard = " << shard << ", threads = " << threads;
    }
  }
  SetParallelThreads(1);
}

INSTANTIATE_TEST_SUITE_P(Corpus, ShardCorpusTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace diva
