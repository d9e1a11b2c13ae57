// Micro-benchmarks of the library's primitives (google-benchmark):
// distance evaluation, suppression, constraint counting, QI grouping,
// graph construction, clustering enumeration and the three baseline
// anonymizers. Not a paper figure — engineering telemetry for the
// substrate the figures run on.

#include <benchmark/benchmark.h>

#include <map>
#include <numeric>

#include "anon/anonymizer.h"
#include "anon/distance.h"
#include "anon/suppress.h"
#include "constraint/generator.h"
#include "core/clusterings.h"
#include "core/constraint_graph.h"
#include "core/diva.h"
#include "datagen/profiles.h"
#include "relation/qi_groups.h"

namespace {

using namespace diva;  // NOLINT

/// Shared fixture: a Pop-Syn-style relation (static to build once).
const Relation& FixtureRelation(size_t rows) {
  static std::map<size_t, Relation>* cache = new std::map<size_t, Relation>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    ProfileOptions options;
    options.num_rows = rows;
    options.seed = 3;
    auto relation = GenerateProfile(DatasetProfile::kPopSyn, options);
    DIVA_CHECK(relation.ok());
    it = cache->emplace(rows, std::move(relation).value()).first;
  }
  return it->second;
}

const ConstraintSet& FixtureConstraints(size_t rows) {
  static std::map<size_t, ConstraintSet>* cache =
      new std::map<size_t, ConstraintSet>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    ConstraintGenOptions gen;
    gen.count = 8;
    gen.min_support = 16;
    gen.seed = 3;
    auto constraints = GenerateConstraints(FixtureRelation(rows), gen);
    DIVA_CHECK(constraints.ok());
    it = cache->emplace(rows, std::move(constraints).value()).first;
  }
  return it->second;
}

void BM_TupleDistance(benchmark::State& state) {
  const Relation& relation = FixtureRelation(10000);
  DistanceMetric metric(relation);
  RowId a = 0;
  RowId b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric.Distance(a, b));
    a = (a + 7) % relation.NumRows();
    b = (b + 13) % relation.NumRows();
  }
}
BENCHMARK(BM_TupleDistance);

void BM_ClusterCostIncrease(benchmark::State& state) {
  const Relation& relation = FixtureRelation(10000);
  ClusterCostTracker tracker(relation);
  tracker.Reset(0);
  for (RowId row = 1; row < 32; ++row) tracker.Add(row);
  RowId candidate = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.CostIncrease(candidate));
    candidate = (candidate + 17) % relation.NumRows();
  }
}
BENCHMARK(BM_ClusterCostIncrease);

void BM_SuppressClusters(benchmark::State& state) {
  const Relation& relation = FixtureRelation(10000);
  Clustering clustering;
  for (RowId row = 0; row + 10 <= 1000; row += 10) {
    Cluster cluster(10);
    std::iota(cluster.begin(), cluster.end(), row);
    clustering.push_back(std::move(cluster));
  }
  for (auto _ : state) {
    state.PauseTiming();
    Relation copy = relation;
    state.ResumeTiming();
    SuppressClustersInPlace(&copy, clustering);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SuppressClusters);

void BM_QiGroups(benchmark::State& state) {
  const Relation& relation = FixtureRelation(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeQiGroups(relation));
  }
  state.SetItemsProcessed(state.iterations() * relation.NumRows());
}
BENCHMARK(BM_QiGroups)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ConstraintCount(benchmark::State& state) {
  const Relation& relation = FixtureRelation(state.range(0));
  const ConstraintSet& constraints = FixtureConstraints(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountAllOccurrences(relation, constraints));
  }
  state.SetItemsProcessed(state.iterations() * relation.NumRows());
}
BENCHMARK(BM_ConstraintCount)->Arg(10000)->Arg(100000);

void BM_BuildConstraintGraph(benchmark::State& state) {
  const Relation& relation = FixtureRelation(10000);
  const ConstraintSet& constraints = FixtureConstraints(10000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildConstraintGraph(relation, constraints));
  }
}
BENCHMARK(BM_BuildConstraintGraph);

void BM_EnumerateClusterings(benchmark::State& state) {
  const Relation& relation = FixtureRelation(10000);
  const ConstraintSet& constraints = FixtureConstraints(10000);
  const DiversityConstraint& constraint = constraints[0];
  const std::vector<RowId> targets =
      BuildConstraintGraph(relation, constraints).targets[0];
  ClusteringEnumOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EnumerateClusterings(relation, constraint, targets, 10, options));
  }
}
BENCHMARK(BM_EnumerateClusterings);

void BM_Baseline(benchmark::State& state, BaselineAlgorithm algorithm) {
  const Relation& relation = FixtureRelation(state.range(0));
  DivaOptions factory;
  factory.baseline = algorithm;
  factory.anonymizer.sample_size = 64;
  auto anonymizer = MakeBaselineAnonymizer(factory);
  std::vector<RowId> rows(relation.NumRows());
  std::iota(rows.begin(), rows.end(), 0);
  for (auto _ : state) {
    auto clusters = anonymizer->BuildClusters(relation, rows, 10);
    DIVA_CHECK(clusters.ok());
    benchmark::DoNotOptimize(*clusters);
  }
  state.SetItemsProcessed(state.iterations() * relation.NumRows());
}
void BM_KMemberSampled(benchmark::State& state) {
  BM_Baseline(state, BaselineAlgorithm::kKMember);
}
void BM_Oka(benchmark::State& state) {
  BM_Baseline(state, BaselineAlgorithm::kOka);
}
void BM_Mondrian(benchmark::State& state) {
  BM_Baseline(state, BaselineAlgorithm::kMondrian);
}
BENCHMARK(BM_KMemberSampled)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Oka)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Mondrian)->Arg(1000)->Arg(10000);

void BM_KMemberExact(benchmark::State& state) {
  const Relation& relation = FixtureRelation(state.range(0));
  auto anonymizer = MakeKMember({});
  std::vector<RowId> rows(relation.NumRows());
  std::iota(rows.begin(), rows.end(), 0);
  for (auto _ : state) {
    auto clusters = anonymizer->BuildClusters(relation, rows, 10);
    DIVA_CHECK(clusters.ok());
    benchmark::DoNotOptimize(*clusters);
  }
  state.SetItemsProcessed(state.iterations() * relation.NumRows());
}
BENCHMARK(BM_KMemberExact)->Arg(1000)->Arg(4000)->Arg(20000);

}  // namespace

BENCHMARK_MAIN();
