// Incremental re-anonymization (core/incremental.h): churn fuzz and edge
// cases asserting the headline contract — ApplyDelta's output, report,
// deterministic counters, and audit are byte-identical to a cold RunDiva
// on the post-delta relation, at every thread width — plus reuse
// accounting (clean components adopt, dirty ones re-color) and the delta
// file parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "constraint/generator.h"
#include "constraint/parser.h"
#include "core/constraint_graph.h"
#include "core/diva.h"
#include "core/incremental.h"
#include "datagen/profiles.h"
#include "relation/csv.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "tests/test_util.h"

namespace diva {
namespace {

std::shared_ptr<const Schema> ChurnSchema() {
  auto schema = Schema::Make({
      {"REGION", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"GROUP", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"AGE", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"JOB", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"DIAG", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  DIVA_CHECK(schema.ok());
  return schema.value();
}

std::vector<std::string> MakeChurnRow(Rng& rng, size_t regions) {
  return {"r" + std::to_string(rng.NextBounded(regions)),
          "g" + std::to_string(rng.NextBounded(2 * regions)),
          std::to_string(18 + rng.NextBounded(60)),
          "j" + std::to_string(rng.NextBounded(8)),
          "d" + std::to_string(rng.NextBounded(5))};
}

/// One per-region constraint per region: disjoint target sets, so the
/// conflict graph decomposes into one component per populated region.
ConstraintSet RegionConstraints(const Schema& schema, size_t regions) {
  std::string text;
  for (size_t r = 0; r < regions; ++r) {
    text += "REGION[r" + std::to_string(r) + "] in [2,400]\n";
  }
  auto constraints = ParseConstraintSet(schema, text);
  DIVA_CHECK(constraints.ok());
  return std::move(constraints).value();
}

/// Everything a divergent execution would perturb first (the determinism
/// suite's fingerprint, plus the shard/report flags the incremental path
/// could plausibly skew).
struct RunFingerprint {
  std::string csv;
  bool complete = false;
  bool audited = false;
  size_t shards = 0;
  size_t residual_rows = 0;
  uint64_t coloring_steps = 0;
  uint64_t backtracks = 0;
  size_t sigma_rows = 0;
  size_t repair_cells = 0;
  std::vector<size_t> unsatisfied;
  std::vector<std::string> counters;

  bool operator==(const RunFingerprint&) const = default;
};

std::vector<std::string> DeterministicCounters(
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

RunFingerprint Fingerprint(const DivaResult& result) {
  RunFingerprint print;
  std::ostringstream csv;
  EXPECT_TRUE(WriteCsv(result.relation, csv).ok());
  print.csv = csv.str();
  print.complete = result.report.clustering_complete;
  print.audited = result.report.audited;
  print.shards = result.report.shards;
  print.residual_rows = result.report.residual_rows;
  print.coloring_steps = result.report.coloring_steps;
  print.backtracks = result.report.backtracks;
  print.sigma_rows = result.report.sigma_rows;
  print.repair_cells = result.report.repair_cells;
  print.unsatisfied = result.report.unsatisfied;
  print.counters = DeterministicCounters(result.report.counters);
  return print;
}

DivaOptions ChurnOptions(size_t k, size_t threads) {
  DivaOptions options;
  options.k = k;
  options.threads = threads;
  options.audit = true;
  options.incremental = true;
  return options;
}

// The carried graph equals a rebuild: survivors keep their target
// lists and edges, new rows (some with a never-seen value) add theirs,
// and an edge whose every witness row is deleted disappears.
TEST(CarryConstraintGraphTest, EqualsARebuildOfThePostDeltaRelation) {
  for (uint64_t seed : {3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const size_t regions = 3;
    auto schema = ChurnSchema();
    std::vector<std::vector<std::string>> rows;
    for (size_t i = 0; i < 200; ++i) rows.push_back(MakeChurnRow(rng, regions));
    auto input = RelationFromRows(schema, rows);
    ASSERT_TRUE(input.ok());
    std::string text;
    for (size_t r = 0; r < regions; ++r) {
      text += "REGION[r" + std::to_string(r) + "] in [2,400]\n";
    }
    for (size_t g = 0; g < 2 * regions; ++g) {
      text += "GROUP[g" + std::to_string(g) + "] in [1,400]\n";
    }
    text += "JOB[jnew] in [0,400]\n";
    auto constraints = ParseConstraintSet(*schema, text);
    ASSERT_TRUE(constraints.ok());

    DeltaBatch delta;
    for (RowId row = 0; row < static_cast<RowId>(rows.size()); ++row) {
      // Every witness of the r0-g0 edge goes, plus random rows.
      const bool witness = rows[row][0] == "r0" && rows[row][1] == "g0";
      if (witness || rng.NextBounded(6) == 0) delta.deleted.push_back(row);
    }
    for (size_t i = 0; i < 20; ++i) {
      std::vector<std::string> row = MakeChurnRow(rng, regions);
      if (i % 5 == 0) row[3] = "jnew";
      if (row[0] == "r0" && row[1] == "g0") row[1] = "g1";
      if (i == 7) row[0] = "r1", row[1] = "g0";
      delta.inserted.push_back(std::move(row));
    }
    auto post = ApplyDeltaToRelation(*input, delta);
    ASSERT_TRUE(post.ok());
    std::vector<RowId> deleted = delta.deleted;
    std::sort(deleted.begin(), deleted.end());

    const ConstraintGraph rebuilt = BuildConstraintGraph(*post, *constraints);
    const ConstraintGraph carried = CarryConstraintGraph(
        BuildConstraintGraph(*input, *constraints), *post, *constraints,
        deleted, rows.size() - deleted.size());
    EXPECT_EQ(carried.targets, rebuilt.targets);
    EXPECT_EQ(carried.adjacency, rebuilt.adjacency);
    EXPECT_FALSE(rebuilt.HasEdge(0, regions))
        << "the r0-g0 edge lost every witness";
  }
}

/// A multi-component churn instance whose shards each keep k or more
/// uncovered rows, so every shard runs its own baseline call.
struct FanOutInstance {
  Relation relation;
  ConstraintSet constraints;
};

FanOutInstance MakeFanOutInstance() {
  Rng rng(17);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 400; ++i) rows.push_back(MakeChurnRow(rng, 5));
  auto relation = RelationFromRows(schema, rows);
  DIVA_CHECK(relation.ok());
  return {std::move(relation).value(), RegionConstraints(*schema, 5)};
}

// Each shard task runs its shard's baseline call, the tasks run
// concurrently and merge in shard order: bytes and deterministic
// counters are the same at widths 1, 2 and 8 for both per-shard
// baselines.
TEST(BaselineFanOutTest, MergeIsIdenticalAtEveryWidth) {
  FanOutInstance instance = MakeFanOutInstance();
  for (BaselineAlgorithm baseline :
       {BaselineAlgorithm::kMondrian, BaselineAlgorithm::kKMember}) {
    SCOPED_TRACE(BaselineAlgorithmToString(baseline));
    std::vector<RunFingerprint> prints;
    for (size_t threads : {1u, 2u, 8u}) {
      DivaOptions options = ChurnOptions(3, threads);
      options.baseline = baseline;
      auto result = RunDiva(instance.relation, instance.constraints, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_GT(result->report.shards, 1u);
      prints.push_back(Fingerprint(*result));
    }
    EXPECT_EQ(prints[1], prints[0]);
    EXPECT_EQ(prints[2], prints[0]);
  }
  SetParallelThreads(1);
}

// Whichever shard's baseline call fails, at whatever width: a deadline
// degrades the run to the same fallback output, and any other fault
// surfaces as the run's Status (never a partial merge). Every call is
// failed in turn, so a fault in the last shard merged is not dropped.
TEST(BaselineFanOutTest, EveryFailingShardCallSurfacesAtEveryWidth) {
  FanOutInstance instance = MakeFanOutInstance();
  auto options_at = [](size_t threads) {
    DivaOptions options = ChurnOptions(3, threads);
    options.baseline = BaselineAlgorithm::kKMember;
    return options;
  };
  failpoint::Reset();
  failpoint::SetCounting(true);
  ASSERT_TRUE(RunDiva(instance.relation, instance.constraints, options_at(1))
                  .ok());
  const uint64_t calls = failpoint::HitCount("kmember.build");
  ASSERT_GE(calls, 3u);

  std::string degraded_csv;
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    const DivaOptions options = options_at(threads);
    for (uint64_t hit = 1; hit <= calls; ++hit) {
      SCOPED_TRACE("hit = " + std::to_string(hit));
      failpoint::Reset();
      failpoint::Arm("kmember.build", StatusCode::kDeadlineExceeded, hit);
      auto degraded =
          RunDiva(instance.relation, instance.constraints, options);
      ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
      EXPECT_TRUE(degraded->report.baseline_degraded);
      EXPECT_TRUE(degraded->report.audited);
      EXPECT_EQ(degraded->snapshot, nullptr);
      const std::string csv = Fingerprint(*degraded).csv;
      if (degraded_csv.empty()) degraded_csv = csv;
      EXPECT_EQ(csv, degraded_csv);

      failpoint::Reset();
      failpoint::Arm("kmember.build", StatusCode::kIoError, hit);
      auto failed = RunDiva(instance.relation, instance.constraints, options);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
      std::string fired = "(hit ";
      fired += std::to_string(hit);
      fired += ')';
      EXPECT_NE(failed.status().message().find(fired), std::string::npos)
          << failed.status().ToString();
    }
    failpoint::Reset();
    failpoint::Arm("shard.run", StatusCode::kIoError, 2);
    auto failed = RunDiva(instance.relation, instance.constraints, options);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  }
  failpoint::Reset();
  SetParallelThreads(1);
}

// A token tripped before the baseline fails every shard's call before
// it clusters a row, so every shard records a cut baseline and the run
// degrades: bytes and deterministic counters are the same at every
// width.
TEST(BaselineFanOutTest, PreTrippedTokenDegradesIdenticallyAtEveryWidth) {
  FanOutInstance instance = MakeFanOutInstance();
  std::vector<RunFingerprint> prints;
  for (size_t threads : {1u, 2u, 8u}) {
    DivaOptions options = ChurnOptions(3, threads);
    options.baseline = BaselineAlgorithm::kKMember;
    options.cancel = CancellationToken::Manual();
    options.cancel.RequestCancel();
    auto result = RunDiva(instance.relation, instance.constraints, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->report.baseline_degraded);
    EXPECT_TRUE(result->report.audited);
    prints.push_back(Fingerprint(*result));
  }
  EXPECT_EQ(prints[1], prints[0]);
  EXPECT_EQ(prints[2], prints[0]);
  SetParallelThreads(1);
}

/// Four regions, k = 3: r0 holds 30 rows under "in [3,30]", so its
/// shard keeps k or more uncovered rows; r1, r2 and r3 hold 4, 4 and 5
/// rows under "in [3,3]", so their clusters of exactly 3 rows leave 1, 1
/// and 2 rows uncovered, which pool into one call after the shards.
FanOutInstance MakeOneBaselineShardInstance() {
  Rng rng(29);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (const auto& [region, count] :
       {std::pair<std::string, size_t>{"r0", 30}, {"r1", 4}, {"r2", 4},
        {"r3", 5}}) {
    for (size_t i = 0; i < count; ++i) {
      std::vector<std::string> row = MakeChurnRow(rng, 4);
      row[0] = region;
      rows.push_back(std::move(row));
    }
  }
  auto relation = RelationFromRows(schema, rows);
  DIVA_CHECK(relation.ok());
  auto constraints = ParseConstraintSet(*schema,
                                        "REGION[r0] in [3,30]\n"
                                        "REGION[r1] in [3,3]\n"
                                        "REGION[r2] in [3,3]\n"
                                        "REGION[r3] in [3,3]\n");
  DIVA_CHECK(constraints.ok());
  return {std::move(relation).value(), std::move(constraints).value()};
}

// A shard left with fewer than k uncovered rows records no baseline
// clusters: its rows join the pool. The shard with k or more records
// its own.
TEST(BaselineFanOutTest, ShardWithFewerThanKUncoveredRowsRecordsNone) {
  FanOutInstance instance = MakeOneBaselineShardInstance();
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    DivaOptions options = ChurnOptions(3, threads);
    options.baseline = BaselineAlgorithm::kKMember;
    auto result = RunDiva(instance.relation, instance.constraints, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result->snapshot, nullptr);
    const PipelineSnapshot& snapshot = *result->snapshot;
    ASSERT_EQ(snapshot.records.size(), 4u);
    for (size_t s = 0; s < 4; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const ShardRecord& record = *snapshot.records[s];
      const size_t uncovered = snapshot.plan.shards[s].rows.size() -
                               TotalRows(record.outcome.chosen_clusters);
      if (s == 0) {
        EXPECT_GE(uncovered, 3u);
        EXPECT_EQ(TotalRows(record.baseline), uncovered);
      } else {
        EXPECT_GT(uncovered, 0u);
        EXPECT_LT(uncovered, 3u);
        EXPECT_TRUE(record.baseline.empty());
      }
      EXPECT_FALSE(record.baseline_cut);
    }
  }
  SetParallelThreads(1);
}

// The merge surfaces the first error in shard order, whichever shard
// failed first in time: shard 0's baseline call fails (only shard 0
// makes one inside the shard tasks) and a later shard faults at
// shard.run, and shard 0's error is the run's Status at every width.
// When a wide run happens to start shard 0 second, shard 0 itself takes
// the shard.run fault and makes no baseline call.
TEST(BaselineFanOutTest, EarlierShardsBaselineErrorSurfacesFirst) {
  FanOutInstance instance = MakeOneBaselineShardInstance();
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    DivaOptions options = ChurnOptions(3, threads);
    options.baseline = BaselineAlgorithm::kKMember;
    failpoint::Reset();
    failpoint::Arm("kmember.build", StatusCode::kIoError, 1);
    failpoint::Arm("shard.run", StatusCode::kIoError, 2);
    auto failed = RunDiva(instance.relation, instance.constraints, options);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
    const uint64_t baseline_calls = failpoint::HitCount("kmember.build");
    if (threads == 1u) {
      EXPECT_EQ(baseline_calls, 1u);
    }
    const std::string fired =
        baseline_calls > 0 ? "'kmember.build'" : "'shard.run'";
    EXPECT_NE(failed.status().message().find(fired), std::string::npos)
        << failed.status().ToString();
  }
  failpoint::Reset();
  SetParallelThreads(1);
}

/// The reuse split of one ApplyDelta call. The incremental.* counters
/// fire outside the pipeline's own report delta, so they are only
/// visible through a process-level snapshot.
struct Reuse {
  uint64_t reused = 0;
  uint64_t recolored = 0;
};

Result<DivaResult> ApplyDeltaCounting(const PipelineSnapshot& prior,
                                      const DeltaBatch& delta,
                                      const DivaOptions& options,
                                      Reuse* reuse) {
  std::vector<counters::Sample> before = counters::Snapshot();
  Result<DivaResult> result = ApplyDelta(prior, delta, options);
  *reuse = Reuse{};
  for (const counters::Sample& sample :
       counters::Delta(before, counters::Snapshot())) {
    if (sample.name == "incremental.shards_reused") {
      reuse->reused = sample.value;
    } else if (sample.name == "incremental.shards_recolored") {
      reuse->recolored = sample.value;
    }
  }
  return result;
}

/// Pinned reuse splits of one fuzz seed's two batches.
struct ChurnPins {
  Reuse churn;
  Reuse local;
};

/// The fuzz core: a seeded multi-component workload, a seeded batch of
/// deletes + inserts anywhere and a second batch confined to one region,
/// then cold-vs-incremental equality at 1/2/8 threads, with each batch's
/// reuse split pinned to `expected` at every width.
void RunChurnSeed(uint64_t seed, const ChurnPins& expected) {
  Rng rng(seed);
  const size_t regions = 3 + rng.NextBounded(4);
  const size_t num_rows = 120 + rng.NextBounded(120);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  rows.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    rows.push_back(MakeChurnRow(rng, regions));
  }
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ConstraintSet constraints = RegionConstraints(*schema, regions);
  const size_t k = 2 + rng.NextBounded(3);

  auto prior = RunDiva(*base, constraints, ChurnOptions(k, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr)
      << "a clean multi-component incremental run must capture a snapshot";

  DeltaBatch delta;
  for (RowId row = 0; row < static_cast<RowId>(num_rows); ++row) {
    if (rng.NextBounded(8) == 0) delta.deleted.push_back(row);
  }
  const size_t num_inserts = rng.NextBounded(30);
  for (size_t i = 0; i < num_inserts; ++i) {
    std::vector<std::string> row = MakeChurnRow(rng, regions);
    if (rng.NextBounded(4) == 0) {
      // A never-seen value: grows a dictionary, which must dirty every
      // component (Mondrian scans the global domain) — still identical
      // output, just the cold-cost path.
      row[3] = "jx" + std::to_string(seed) + "_" + std::to_string(i);
    }
    delta.inserted.push_back(std::move(row));
  }

  // A second batch confined to region r0, built from values already
  // interned: every other region's shard keeps its rows and is adopted.
  DeltaBatch local;
  for (RowId row = 0; row < static_cast<RowId>(num_rows); ++row) {
    if (rows[row][0] == "r0" && rng.NextBounded(4) == 0) {
      local.deleted.push_back(row);
    }
  }
  const size_t num_local_inserts = 1 + rng.NextBounded(4);
  for (size_t i = 0; i < num_local_inserts; ++i) {
    std::vector<std::string> row = rows[rng.NextBounded(num_rows)];
    row[0] = "r0";
    local.inserted.push_back(std::move(row));
  }

  // Both batches run against the one prior snapshot, in both orders: a
  // batch never changes what a later delta against that snapshot sees.
  using Batch = std::pair<const DeltaBatch*, Reuse>;
  const Batch local_batch{&local, expected.local};
  const Batch churn_batch{&delta, expected.churn};
  for (const auto& order : {std::vector<Batch>{local_batch, churn_batch},
                            std::vector<Batch>{churn_batch, local_batch}}) {
    SCOPED_TRACE(order.front().first == &local ? "local first"
                                               : "churn first");
    for (const auto& [batch, pinned] : order) {
      auto post = ApplyDeltaToRelation(*prior->snapshot->input, *batch);
      ASSERT_TRUE(post.ok()) << post.status().ToString();

      RunFingerprint cold_baseline;
      for (size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads = " + std::to_string(threads));
        auto cold = RunDiva(*post, constraints, ChurnOptions(k, threads));
        ASSERT_TRUE(cold.ok()) << cold.status().ToString();
        Reuse reuse;
        auto incremental = ApplyDeltaCounting(
            *prior->snapshot, *batch, ChurnOptions(k, threads), &reuse);
        ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
        if (threads == 1u) cold_baseline = Fingerprint(*cold);
        EXPECT_EQ(Fingerprint(*cold), cold_baseline);
        EXPECT_EQ(Fingerprint(*incremental), cold_baseline);
        EXPECT_EQ(reuse.reused, pinned.reused);
        EXPECT_EQ(reuse.recolored, pinned.recolored);
      }
    }
  }
  SetParallelThreads(1);
}

TEST(IncrementalTest, ChurnFuzzMatchesColdRunAtEveryThreadWidth) {
  // {shards_reused, shards_recolored} of each seed's {churn, local}
  // batch, read off the per-row FNV fingerprint rule that preceded the
  // exact row comparison: the two rules must adopt the same shards.
  const ChurnPins kExpected[] = {
      {{0, 5}, {4, 1}},  // seed 1
      {{0, 3}, {2, 1}},  // seed 2
      {{0, 5}, {4, 1}},  // seed 3
      {{0, 4}, {3, 1}},  // seed 4
      {{0, 4}, {3, 1}},  // seed 5
      {{0, 6}, {5, 1}},  // seed 6
      {{0, 5}, {4, 1}},  // seed 7
      {{0, 6}, {5, 1}},  // seed 8
      {{0, 3}, {2, 1}},  // seed 9
      {{0, 6}, {5, 1}},  // seed 10
      {{0, 3}, {2, 1}},  // seed 11
      {{0, 4}, {3, 1}},  // seed 12
  };
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    RunChurnSeed(seed, kExpected[seed - 1]);
  }
}

TEST(IncrementalTest, EmptyDeltaReusesEveryComponent) {
  Rng rng(77);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 160; ++i) rows.push_back(MakeChurnRow(rng, 4));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 4);

  auto prior = RunDiva(*base, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr);

  Reuse reuse;
  auto replay = ApplyDeltaCounting(*prior->snapshot, DeltaBatch{},
                                   ChurnOptions(2, 1), &reuse);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(Fingerprint(*replay), Fingerprint(*prior))
      << "an empty delta must reproduce the prior run exactly";
  EXPECT_EQ(reuse.reused, replay->report.shards)
      << "an empty delta must adopt every component";
  SetParallelThreads(1);
}

/// Deletes the first row of `region` in `input`: a delta that dirties
/// that region's shard alone.
DeltaBatch DeleteFirstRowOf(const Relation& input, const std::string& region) {
  DeltaBatch delta;
  for (RowId row = 0; row < static_cast<RowId>(input.NumRows()); ++row) {
    if (input.ValueString(row, 0) == region) {
      delta.deleted.push_back(row);
      break;
    }
  }
  DIVA_CHECK(!delta.deleted.empty());
  return delta;
}

// A clean shard's record, which holds both its coloring and its
// baseline, passes to the next snapshot by pointer: after each chained
// ApplyDelta, every reused shard's record is the very object of the
// snapshot it replayed (so a shard clean through both deltas still
// holds the first run's record), and the recolored shard holds a new
// one.
TEST(IncrementalTest, ChainedDeltasShareCleanShardRecords) {
  Rng rng(91);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 160; ++i) rows.push_back(MakeChurnRow(rng, 4));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 4);

  for (size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    auto first = RunDiva(*base, constraints, ChurnOptions(2, threads));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_NE(first->snapshot, nullptr);
    std::shared_ptr<const PipelineSnapshot> prior = first->snapshot;
    const std::shared_ptr<const PipelineSnapshot> original = prior;
    ASSERT_EQ(original->records.size(), 4u);

    // Shard s holds region rs's constraint: r0 goes dirty first, then r2.
    const size_t dirty_order[] = {0, 2};
    for (size_t dirty : dirty_order) {
      SCOPED_TRACE("dirty shard = " + std::to_string(dirty));
      Reuse reuse;
      auto next = ApplyDeltaCounting(
          *prior, DeleteFirstRowOf(*prior->input, "r" + std::to_string(dirty)),
          ChurnOptions(2, threads), &reuse);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ASSERT_NE(next->snapshot, nullptr);
      EXPECT_EQ(reuse.reused, 3u);
      const PipelineSnapshot& after = *next->snapshot;
      ASSERT_EQ(after.records.size(), 4u);
      size_t shared_baselines = 0;
      for (size_t s = 0; s < 4; ++s) {
        ASSERT_NE(after.records[s], nullptr) << "shard " << s;
        if (s == dirty) {
          EXPECT_NE(after.records[s], prior->records[s]);
          continue;
        }
        EXPECT_EQ(after.records[s], prior->records[s]) << "shard " << s;
        shared_baselines += !after.records[s]->baseline.empty();
      }
      EXPECT_GT(shared_baselines, 0u)
          << "the workload must exercise baseline sharing";
      prior = next->snapshot;
    }
    // Shards 1 and 3 stayed clean through both deltas.
    for (size_t s : {size_t{1}, size_t{3}}) {
      EXPECT_EQ(prior->records[s], original->records[s]) << "shard " << s;
    }
  }
  SetParallelThreads(1);
}

/// Runs `delta` against a fresh 4-region, 160-row base cold and
/// incrementally at widths 1/2/8: the outputs must match and the reuse
/// split must be {shards - recolored, recolored}.
void ExpectDeltaRecolors(
    const std::function<DeltaBatch(const std::vector<std::vector<std::string>>&)>&
        make_delta,
    uint64_t recolored) {
  Rng rng(82);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 160; ++i) rows.push_back(MakeChurnRow(rng, 4));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 4);

  auto prior = RunDiva(*base, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr);
  const DeltaBatch delta = make_delta(rows);

  auto post = ApplyDeltaToRelation(*prior->snapshot->input, delta);
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  for (size_t col = 0; col < post->NumAttributes(); ++col) {
    ASSERT_EQ(post->dictionary(col).size(),
              prior->snapshot->input->dictionary(col).size())
        << "the delta must not intern a new value";
  }
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    auto cold = RunDiva(*post, constraints, ChurnOptions(2, threads));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    Reuse reuse;
    auto incremental = ApplyDeltaCounting(*prior->snapshot, delta,
                                          ChurnOptions(2, threads), &reuse);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_EQ(Fingerprint(*incremental), Fingerprint(*cold));
    ASSERT_EQ(cold->report.shards, 4u);
    EXPECT_EQ(reuse.recolored, recolored);
    EXPECT_EQ(reuse.reused, cold->report.shards - recolored);
  }
  SetParallelThreads(1);
}

TEST(IncrementalTest, NoOpDeltaReusesEveryComponent) {
  // Deleting the last row and re-inserting its content puts the same
  // codes back at the same row id: every shard's rows compare equal.
  ExpectDeltaRecolors(
      [](const std::vector<std::vector<std::string>>& rows) {
        DeltaBatch delta;
        delta.deleted.push_back(static_cast<RowId>(rows.size() - 1));
        delta.inserted.push_back(rows.back());
        return delta;
      },
      /*recolored=*/0);
}

TEST(IncrementalTest, ChangedCellAtSamePositionDirtiesOnlyItsShard) {
  // Every row is targeted by its region's constraint. Re-inserting the
  // last row with another (already interned) AGE keeps every row list
  // and every other shard's rows identical; only the last row's shard
  // differs, in one non-target cell.
  ExpectDeltaRecolors(
      [](const std::vector<std::vector<std::string>>& rows) {
        DeltaBatch delta;
        delta.deleted.push_back(static_cast<RowId>(rows.size() - 1));
        std::vector<std::string> changed = rows.back();
        for (const std::vector<std::string>& row : rows) {
          if (row[2] != changed[2]) {
            changed[2] = row[2];
            break;
          }
        }
        EXPECT_NE(changed, rows.back());
        delta.inserted.push_back(std::move(changed));
        return delta;
      },
      /*recolored=*/1);
}

TEST(IncrementalTest, DeleteWholeComponentMatchesColdRun) {
  Rng rng(78);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 180; ++i) rows.push_back(MakeChurnRow(rng, 4));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 4);

  auto prior = RunDiva(*base, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr);

  // Delete every r0 row: REGION[r0]'s target set empties and its whole
  // component disappears from the plan.
  DeltaBatch delta;
  for (RowId row = 0; row < static_cast<RowId>(rows.size()); ++row) {
    if (rows[row][0] == "r0") delta.deleted.push_back(row);
  }
  ASSERT_FALSE(delta.deleted.empty());

  auto post = ApplyDeltaToRelation(*prior->snapshot->input, delta);
  ASSERT_TRUE(post.ok());
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    auto cold = RunDiva(*post, constraints, ChurnOptions(2, threads));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto incremental =
        ApplyDelta(*prior->snapshot, delta, ChurnOptions(2, threads));
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_EQ(Fingerprint(*incremental), Fingerprint(*cold));
  }
  SetParallelThreads(1);
}

TEST(IncrementalTest, InsertBridgingTwoComponentsMatchesColdRun) {
  // r0 rows carry job j1 only and r1 rows job j0 only, so JOB[j0] shares
  // its component with REGION[r1] while REGION[r0] sits alone. Inserting
  // an (r0, j0) row fuses the two components into one.
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  Rng rng(79);
  for (size_t i = 0; i < 60; ++i) {
    bool left = i % 2 == 0;
    rows.push_back({left ? "r0" : "r1", "g" + std::to_string(i % 6),
                    std::to_string(20 + rng.NextBounded(50)),
                    left ? "j1" : "j0", "d" + std::to_string(i % 4)});
  }
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  auto constraints = ParseConstraintSet(*schema,
                                        "REGION[r0] in [2,100]\n"
                                        "REGION[r1] in [2,100]\n"
                                        "JOB[j0] in [2,100]\n");
  ASSERT_TRUE(constraints.ok());

  auto prior = RunDiva(*base, *constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr);
  EXPECT_EQ(prior->report.shards, 2u);

  DeltaBatch delta;
  delta.inserted.push_back({"r0", "g1", "33", "j0", "d1"});

  auto post = ApplyDeltaToRelation(*prior->snapshot->input, delta);
  ASSERT_TRUE(post.ok());
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    auto cold = RunDiva(*post, *constraints, ChurnOptions(2, threads));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto incremental =
        ApplyDelta(*prior->snapshot, delta, ChurnOptions(2, threads));
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_EQ(Fingerprint(*incremental), Fingerprint(*cold));
    EXPECT_EQ(incremental->report.shards, cold->report.shards);
  }
  SetParallelThreads(1);
}

/// The rows of `relation` as strings, in row order (delta inserts).
std::vector<std::vector<std::string>> RowStrings(const Relation& relation) {
  std::vector<std::vector<std::string>> rows(relation.NumRows());
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (size_t col = 0; col < relation.NumAttributes(); ++col) {
      rows[row].push_back(relation.ValueString(row, col));
    }
  }
  return rows;
}

/// Replaces the last row by a copy whose column `col` holds the first
/// different value found in that column: the row keeps its position and
/// the delta interns no new value.
DeltaBatch ChangeLastRow(const std::vector<std::vector<std::string>>& rows,
                         size_t col) {
  DeltaBatch delta;
  delta.deleted.push_back(static_cast<RowId>(rows.size() - 1));
  std::vector<std::string> changed = rows.back();
  for (const std::vector<std::string>& row : rows) {
    if (row[col] != changed[col]) {
      changed[col] = row[col];
      break;
    }
  }
  EXPECT_NE(changed, rows.back());
  delta.inserted.push_back(std::move(changed));
  return delta;
}

TEST(IncrementalTest, ConnectedInstanceReplaysDeltasLikeAColdRun) {
  // The connected 3,000-row Pop-Syn instance of DivaOneComponentPinTest:
  // its plan has one shard, which the run captures and a clean delta
  // adopts. Every kind of delta must reproduce the cold run.
  ProfileOptions profile_options;
  profile_options.num_rows = 3000;
  profile_options.seed = 7;
  auto base = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(base.ok());
  ConstraintGenOptions generator_options;
  generator_options.count = 6;
  generator_options.target_conflict = 0.9;
  generator_options.seed = 7;
  auto constraints = GenerateConstraints(*base, generator_options);
  ASSERT_TRUE(constraints.ok());

  auto prior = RunDiva(*base, *constraints, ChurnOptions(10, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_EQ(prior->report.shards, 1u);
  ASSERT_NE(prior->snapshot, nullptr)
      << "a connected incremental run must capture a snapshot";

  const Schema& schema = base->schema();
  ASSERT_FALSE(schema.sensitive_indices().empty());
  const size_t payload = schema.sensitive_indices().front();
  const size_t constrained = constraints->front().attribute_indices().front();
  for (const DiversityConstraint& constraint : *constraints) {
    for (size_t col : constraint.attribute_indices()) {
      ASSERT_NE(col, payload) << "the payload column must be unconstrained";
    }
  }
  const std::vector<std::vector<std::string>> rows = RowStrings(*base);
  const size_t n = rows.size();

  struct Case {
    const char* name;
    DeltaBatch delta;
  };
  std::vector<Case> cases;
  {
    DeltaBatch same;
    same.deleted.push_back(static_cast<RowId>(n - 1));
    same.inserted.push_back(rows.back());
    cases.push_back({"no-op", std::move(same)});
  }
  cases.push_back({"payload-only", ChangeLastRow(rows, payload)});
  cases.push_back({"QI-touching", ChangeLastRow(rows, constrained)});
  {
    DeltaBatch shifting;
    shifting.deleted = {0, static_cast<RowId>(n / 2)};
    shifting.inserted = {rows[1], rows[2]};
    cases.push_back({"position-shifting", std::move(shifting)});
  }

  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    auto post = ApplyDeltaToRelation(*prior->snapshot->input, test_case.delta);
    ASSERT_TRUE(post.ok()) << post.status().ToString();
    for (size_t col = 0; col < post->NumAttributes(); ++col) {
      ASSERT_EQ(post->dictionary(col).size(),
                prior->snapshot->input->dictionary(col).size())
          << "the delta must not intern a new value";
    }
    RunFingerprint cold_baseline;
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads = " + std::to_string(threads));
      auto cold = RunDiva(*post, *constraints, ChurnOptions(10, threads));
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Reuse reuse;
      auto incremental = ApplyDeltaCounting(
          *prior->snapshot, test_case.delta, ChurnOptions(10, threads), &reuse);
      ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
      if (threads == 1u) cold_baseline = Fingerprint(*cold);
      EXPECT_EQ(Fingerprint(*cold), cold_baseline);
      EXPECT_EQ(Fingerprint(*incremental), cold_baseline);
      EXPECT_EQ(reuse.reused + reuse.recolored, 1u);
      EXPECT_NE(incremental->snapshot, nullptr);
      if (std::string(test_case.name) == "no-op") {
        EXPECT_EQ(reuse.reused, 1u) << "a clean lone shard must be adopted";
      }
    }
  }

  // A delta that splits the component: r0 rows carry job j1 and r1 rows
  // job j0, so only the trailing (r0, j0) row joins REGION[r0] to
  // JOB[j0]'s component. Deleting it leaves two shards.
  auto churn_schema = ChurnSchema();
  std::vector<std::vector<std::string>> churn_rows;
  Rng rng(83);
  for (size_t i = 0; i < 60; ++i) {
    bool left = i % 2 == 0;
    churn_rows.push_back({left ? "r0" : "r1", "g" + std::to_string(i % 6),
                          std::to_string(20 + rng.NextBounded(50)),
                          left ? "j1" : "j0", "d" + std::to_string(i % 4)});
  }
  churn_rows.push_back({"r0", "g1", "33", "j0", "d1"});
  auto bridged = RelationFromRows(churn_schema, churn_rows);
  ASSERT_TRUE(bridged.ok());
  auto churn_constraints = ParseConstraintSet(*churn_schema,
                                              "REGION[r0] in [2,100]\n"
                                              "REGION[r1] in [2,100]\n"
                                              "JOB[j0] in [2,100]\n");
  ASSERT_TRUE(churn_constraints.ok());
  auto connected = RunDiva(*bridged, *churn_constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  ASSERT_EQ(connected->report.shards, 1u);
  ASSERT_NE(connected->snapshot, nullptr);
  DeltaBatch split;
  split.deleted.push_back(static_cast<RowId>(churn_rows.size() - 1));
  auto post = ApplyDeltaToRelation(*connected->snapshot->input, split);
  ASSERT_TRUE(post.ok());
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("split, threads = " + std::to_string(threads));
    auto cold = RunDiva(*post, *churn_constraints, ChurnOptions(2, threads));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto incremental =
        ApplyDelta(*connected->snapshot, split, ChurnOptions(2, threads));
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_EQ(incremental->report.shards, 2u);
    EXPECT_EQ(Fingerprint(*incremental), Fingerprint(*cold));
  }
  SetParallelThreads(1);
}

TEST(IncrementalTest, SnapshotsChainAcrossDeltas) {
  Rng rng(80);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 150; ++i) rows.push_back(MakeChurnRow(rng, 4));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 4);

  auto prior = RunDiva(*base, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  ASSERT_NE(prior->snapshot, nullptr);

  DeltaBatch first;
  first.deleted = {3, 17, 42};
  first.inserted.push_back(MakeChurnRow(rng, 4));
  auto mid = ApplyDelta(*prior->snapshot, first, ChurnOptions(2, 1));
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  ASSERT_NE(mid->snapshot, nullptr)
      << "ApplyDelta must emit a chainable snapshot";

  DeltaBatch second;
  second.deleted = {0, 9};
  second.inserted.push_back(MakeChurnRow(rng, 4));
  auto chained = ApplyDelta(*mid->snapshot, second, ChurnOptions(2, 1));
  ASSERT_TRUE(chained.ok()) << chained.status().ToString();

  auto post = ApplyDeltaToRelation(*mid->snapshot->input, second);
  ASSERT_TRUE(post.ok());
  auto cold = RunDiva(*post, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(Fingerprint(*chained), Fingerprint(*cold));
  SetParallelThreads(1);
}

TEST(IncrementalTest, RejectsOutOfRangeDeleteAndStaleSnapshot) {
  Rng rng(81);
  auto schema = ChurnSchema();
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < 120; ++i) rows.push_back(MakeChurnRow(rng, 3));
  auto base = RelationFromRows(schema, rows);
  ASSERT_TRUE(base.ok());
  ConstraintSet constraints = RegionConstraints(*schema, 3);

  auto prior = RunDiva(*base, constraints, ChurnOptions(2, 1));
  ASSERT_TRUE(prior.ok());
  ASSERT_NE(prior->snapshot, nullptr);

  DeltaBatch out_of_range;
  out_of_range.deleted = {100000};
  auto bad = ApplyDelta(*prior->snapshot, out_of_range, ChurnOptions(2, 1));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  PipelineSnapshot invalid;
  auto stale = ApplyDelta(invalid, DeltaBatch{}, ChurnOptions(2, 1));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalTest, ParsesDeltaFileFormat) {
  auto delta = ParseDeltaFile(
      "# churn batch\n"
      "- 7\n"
      "-  12\n"
      "\n"
      "+ r1, g2, 44, j3, d0\n"
      "+ r0,g1,27,j2,*\n");
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->deleted, (std::vector<RowId>{7, 12}));
  ASSERT_EQ(delta->inserted.size(), 2u);
  EXPECT_EQ(delta->inserted[0],
            (std::vector<std::string>{"r1", "g2", "44", "j3", "d0"}));
  EXPECT_EQ(delta->inserted[1],
            (std::vector<std::string>{"r0", "g1", "27", "j2", "*"}));
  EXPECT_EQ(delta->RowsDeleted(), 2u);

  EXPECT_FALSE(ParseDeltaFile("- notanumber\n").ok());
  EXPECT_FALSE(ParseDeltaFile("? what\n").ok());
  EXPECT_TRUE(ParseDeltaFile("").ok());

  // A row listed twice is deleted, and counted, once.
  auto repeated = ParseDeltaFile("- 3\n- 3\n");
  ASSERT_TRUE(repeated.ok());
  EXPECT_EQ(repeated->RowsDeleted(), 1u);

  // Ids past RowId's range must not wrap onto a real row (2^32 + 1 would
  // delete row 1); the error names the line.
  EXPECT_EQ(ParseDeltaFile("- 4294967295\n")->deleted,
            (std::vector<RowId>{4294967295u}));
  for (const char* id : {"4294967296", "4294967297", "9223372036854775807"}) {
    auto wrapped = ParseDeltaFile("- 3\n\n- " + std::string(id) + "\n");
    ASSERT_FALSE(wrapped.ok()) << id;
    EXPECT_EQ(wrapped.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(wrapped.status().message().find("delta line 3"),
              std::string::npos)
        << wrapped.status().ToString();
  }
}

}  // namespace
}  // namespace diva
