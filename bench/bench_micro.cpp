// Micro-benchmarks of the library's primitives (google-benchmark):
// distance evaluation, suppression, constraint counting, QI grouping,
// graph construction, clustering enumeration, the three baseline
// anonymizers and the CSV reader and writer. Not a paper figure —
// engineering telemetry for the substrate the figures run on.

#include <benchmark/benchmark.h>

#include <map>
#include <numeric>
#include <sstream>
#include <streambuf>

#include "anon/anonymizer.h"
#include "bench/scale_shape.h"
#include "anon/distance.h"
#include "anon/suppress.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "constraint/generator.h"
#include "core/clusterings.h"
#include "core/constraint_graph.h"
#include "core/diva.h"
#include "core/shard.h"
#include "datagen/profiles.h"
#include "relation/csv.h"
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

/// Shard 0 of the pinned 1M-row scale shape (15,625 rows, one region's
/// three constraints), gathered as the sharded coloring gathers it, with
/// its local conflict graph.
struct ScaleShard {
  Relation relation;
  ConstraintSet constraints;
  ConstraintGraph graph;
};

const ScaleShard& FixtureScaleShard() {
  static const ScaleShard* shard = [] {
    bench::ScaleWorkload workload = bench::BuildScaleWorkload();
    const ConstraintGraph graph =
        BuildConstraintGraph(workload.relation, workload.constraints);
    const ShardPlan plan = ComputeShardPlan(graph, workload.relation.NumRows());
    const Shard& first = plan.shards[0];
    ConstraintSet local;
    for (size_t c : first.constraints) local.push_back(workload.constraints[c]);
    Relation sub = workload.relation.SelectRows(first.rows);
    ConstraintGraph local_graph = BuildConstraintGraph(sub, local);
    return new ScaleShard{std::move(sub), std::move(local),
                          std::move(local_graph)};
  }();
  return *shard;
}

// The search context's QI order: one packed-key sort of every targeted
// row of the shard (ungated; numbers in BENCH_shard_coloring.json).
void BM_ShardSearchOrder(benchmark::State& state) {
  const ScaleShard& shard = FixtureScaleShard();
  std::vector<RowId> targeted(shard.relation.NumRows());
  std::iota(targeted.begin(), targeted.end(), RowId{0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortByQiSimilarity(shard.relation, targeted));
  }
}
BENCHMARK(BM_ShardSearchOrder)->Unit(benchmark::kMillisecond);

// One enumeration of the shard's first constraint over its whole sorted
// target list, sized to its lower bound (the first node a search visits).
void BM_ShardEnumeration(benchmark::State& state) {
  const ScaleShard& shard = FixtureScaleShard();
  const std::vector<RowId> sorted =
      SortByQiSimilarity(shard.relation, shard.graph.targets[0]);
  const DiversityConstraint& constraint = shard.constraints[0];
  ClusteringEnumOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateClusteringsQiSorted(
        shard.relation, sorted, bench::kK, constraint.lower(),
        constraint.upper(), options));
  }
}
BENCHMARK(BM_ShardEnumeration)->Unit(benchmark::kMillisecond);

void BM_Baseline(benchmark::State& state, BaselineAlgorithm algorithm) {
  const Relation& relation = FixtureRelation(state.range(0));
  DivaOptions factory;
  factory.baseline = algorithm;
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
void BM_Oka(benchmark::State& state) {
  BM_Baseline(state, BaselineAlgorithm::kOka);
}
void BM_Mondrian(benchmark::State& state) {
  BM_Baseline(state, BaselineAlgorithm::kMondrian);
}
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

/// A regions_churn-shaped relation (diva_bench): 1,000,000 rows of
/// REGION (64 values), GROUP, AGE, JOB and DIAG, about 17 CSV bytes a
/// row.
const Relation& RegionsRelation() {
  static const Relation* relation = [] {
    auto schema = Schema::Make({{"REGION"},
                                {"GROUP"},
                                {"AGE", AttributeRole::kQuasiIdentifier,
                                 AttributeKind::kNumeric},
                                {"JOB"},
                                {"DIAG", AttributeRole::kSensitive}});
    DIVA_CHECK(schema.ok());
    auto* out = new Relation(*schema);
    Rng rng(11);
    std::vector<ValueCode> row(5);
    for (size_t r = 0; r < 1000000; ++r) {
      row[0] = out->Encode(0, "r" + std::to_string(rng.NextBounded(64)));
      row[1] = out->Encode(1, "g" + std::to_string(rng.NextBounded(8)));
      row[2] = out->Encode(2, std::to_string(18 + rng.NextBounded(73)));
      row[3] = out->Encode(3, "j" + std::to_string(rng.NextBounded(40)));
      row[4] = out->Encode(4, "d" + std::to_string(rng.NextBounded(12)));
      out->AppendRow(row);
    }
    return out;
  }();
  return *relation;
}

const std::string& RegionsCsv() {
  static const std::string* text = [] {
    std::ostringstream out;
    DIVA_CHECK(WriteCsv(RegionsRelation(), out).ok());
    return new std::string(out.str());
  }();
  return *text;
}

/// Reads a string in place: no copy, and seekable like a file.
class MemoryBuffer : public std::streambuf {
 public:
  explicit MemoryBuffer(const std::string& text) {
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode) override {
    const off_type base = dir == std::ios_base::beg   ? 0
                          : dir == std::ios_base::cur ? gptr() - eback()
                                                      : egptr() - eback();
    if (base + off < 0 || base + off > egptr() - eback()) return -1;
    setg(eback(), eback() + base + off, egptr());
    return base + off;
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

/// Counts the bytes written to it and keeps none.
class NullBuffer : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
  int_type overflow(int_type c) override { return c; }
};

void BM_ReadCsv(benchmark::State& state) {
  const std::string& text = RegionsCsv();
  const auto schema = RegionsRelation().schema_ptr();
  SetParallelThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    MemoryBuffer buffer(text);
    std::istream in(&buffer);
    auto read = ReadCsv(in, schema);
    DIVA_CHECK(read.ok() && read->NumRows() == 1000000);
    benchmark::DoNotOptimize(*read);
  }
  SetParallelThreads(1);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ReadCsv)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_WriteCsv(benchmark::State& state) {
  const Relation& relation = RegionsRelation();
  SetParallelThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    NullBuffer buffer;
    std::ostream out(&buffer);
    DIVA_CHECK(WriteCsv(relation, out).ok());
    benchmark::DoNotOptimize(&buffer);
    benchmark::ClobberMemory();
  }
  SetParallelThreads(1);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(RegionsCsv().size()));
}
BENCHMARK(BM_WriteCsv)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
