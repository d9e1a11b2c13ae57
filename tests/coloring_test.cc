#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "common/counters.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "constraint/generator.h"
#include "core/coloring.h"
#include "core/constraint_graph.h"
#include "core/diva.h"
#include "datagen/profiles.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalConstraints;
using testing::MedicalRelation;
using testing::MedicalSchema;
using testing::MustParse;

ColoringOutcome Color(const Relation& r, const ConstraintSet& constraints,
                      ColoringOptions options) {
  ConstraintGraph graph = BuildConstraintGraph(r, constraints);
  return ColorConstraints(r, constraints, graph, options);
}

// ------------------------------------------------------------ graph

TEST(ConstraintGraphTest, PaperFigure2) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  ConstraintGraph graph = BuildConstraintGraph(r, constraints);

  ASSERT_EQ(graph.NumNodes(), 3u);
  EXPECT_EQ(graph.targets[0], (std::vector<RowId>{7, 8, 9}));
  EXPECT_EQ(graph.targets[1], (std::vector<RowId>{4, 5}));
  EXPECT_EQ(graph.targets[2], (std::vector<RowId>{5, 6, 7, 9}));

  // Edges: {v1,v3} and {v2,v3}; no edge {v1,v2}.
  EXPECT_TRUE(graph.HasEdge(0, 2));
  EXPECT_TRUE(graph.HasEdge(2, 0));
  EXPECT_TRUE(graph.HasEdge(1, 2));
  EXPECT_FALSE(graph.HasEdge(0, 1));
  EXPECT_EQ(graph.adjacency[2], (std::vector<size_t>{0, 1}));
}

TEST(ConstraintGraphTest, EmptySetIsEmptyGraph) {
  Relation r = MedicalRelation();
  ConstraintGraph graph = BuildConstraintGraph(r, {});
  EXPECT_EQ(graph.NumNodes(), 0u);
}

// ------------------------------------------------------------ coloring

class ColoringStrategyTest
    : public ::testing::TestWithParam<SelectionStrategy> {};

TEST_P(ColoringStrategyTest, PaperExampleColorsCompletely) {
  // Example 3.4: a complete coloring of {v1, v2, v3} exists for k = 2.
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());

  ColoringOptions options;
  options.k = 2;
  options.strategy = GetParam();
  ColoringOutcome outcome = Color(r, constraints, options);

  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.NumColored(), 3u);
  // Preserved counts within every constraint's bounds.
  for (size_t i = 0; i < constraints.size(); ++i) {
    EXPECT_GE(outcome.preserved[i], constraints[i].lower()) << i;
    EXPECT_LE(outcome.preserved[i], constraints[i].upper()) << i;
  }
  // Chosen clusters pairwise disjoint, each of size >= k.
  std::set<RowId> seen;
  for (const Cluster& cluster : outcome.chosen_clusters) {
    EXPECT_GE(cluster.size(), 2u);
    for (RowId row : cluster) {
      EXPECT_TRUE(seen.insert(row).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ColoringStrategyTest,
    ::testing::Values(SelectionStrategy::kBasic, SelectionStrategy::kMinChoice,
                      SelectionStrategy::kMaxFanOut),
    [](const ::testing::TestParamInfo<SelectionStrategy>& info) {
      return SelectionStrategyToString(info.param);
    });

TEST(ColoringTest, UpperBoundsNeverExceeded) {
  // Section 3.2's interaction example: s2 = (ETH[African],1,3) preserves
  // two Males as a side effect; a GEN[Male] constraint's upper bound must
  // account for that contribution.
  Relation r = MedicalRelation();
  auto schema = MedicalSchema();
  ConstraintSet constraints = {
      MustParse(*schema, "ETH[African] in [1,3]"),
      MustParse(*schema, "GEN[Male] in [1,3]"),
  };
  ColoringOptions options;
  options.k = 2;
  ColoringOutcome outcome = Color(r, constraints, options);
  EXPECT_LE(outcome.preserved[0], 3u);
  EXPECT_LE(outcome.preserved[1], 3u);
  if (outcome.complete) {
    EXPECT_GE(outcome.preserved[0], 1u);
    EXPECT_GE(outcome.preserved[1], 1u);
  }
}

TEST(ColoringTest, CrossContributionSatisfiesNestedConstraint) {
  // The African cluster {t5, t6} preserves two Males, so GEN[Male] with
  // lower bound 2 is satisfiable with no cluster of its own — the
  // dynamic deficit accounting must discover this.
  Relation r = MedicalRelation();
  auto schema = MedicalSchema();
  ConstraintSet constraints = {
      MustParse(*schema, "ETH[African] in [2,2]"),
      MustParse(*schema, "GEN[Male] in [2,3]"),
  };
  ColoringOptions options;
  options.k = 2;
  options.strategy = SelectionStrategy::kMaxFanOut;
  ColoringOutcome outcome = Color(r, constraints, options);
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.preserved[0], 2u);
  EXPECT_GE(outcome.preserved[1], 2u);
  EXPECT_LE(outcome.preserved[1], 3u);
}

TEST(ColoringTest, IdenticalConstraintsShareClusters) {
  // Two identical constraints: the second's lower bound is covered by the
  // first's cluster; contributions are counted once.
  Relation r = MedicalRelation();
  auto schema = MedicalSchema();
  ConstraintSet constraints = {
      MustParse(*schema, "ETH[African] in [2,2]"),
      MustParse(*schema, "ETH[African] in [2,2]"),
  };
  ColoringOptions options;
  options.k = 2;
  ColoringOutcome outcome = Color(r, constraints, options);
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.preserved[0], 2u);
  EXPECT_EQ(outcome.preserved[1], 2u);
  EXPECT_EQ(outcome.chosen_clusters.size(), 1u);
}

TEST(ColoringTest, OverlappingClustersRejected) {
  // ETH[African] in [2,2] must take rows {4,5}. CTY[Winnipeg] (targets
  // {3,4,8}) must then avoid row 4: only {3,8} remains free.
  Relation r = MedicalRelation();
  auto schema = MedicalSchema();
  ConstraintSet constraints = {
      MustParse(*schema, "ETH[African] in [2,2]"),
      MustParse(*schema, "CTY[Winnipeg] in [2,2]"),
  };
  ColoringOptions options;
  options.k = 2;
  ColoringOutcome outcome = Color(r, constraints, options);
  ASSERT_TRUE(outcome.complete);
  std::set<RowId> seen;
  for (const Cluster& cluster : outcome.chosen_clusters) {
    for (RowId row : cluster) {
      EXPECT_TRUE(seen.insert(row).second) << "overlap on row " << row;
    }
  }
  EXPECT_TRUE(seen.count(4));  // African cluster took t5
  EXPECT_TRUE(seen.count(3) && seen.count(8));  // Winnipeg took {t4, t9}
}

TEST(ColoringTest, InfeasibleNodeLeavesPartialAssignment) {
  Relation r = MedicalRelation();
  auto schema = MedicalSchema();
  ConstraintSet constraints = {
      MustParse(*schema, "ETH[Asian] in [2,5]"),
      MustParse(*schema, "ETH[Martian] in [1,3]"),  // no targets
  };
  ColoringOptions options;
  options.k = 2;
  ColoringOutcome outcome = Color(r, constraints, options);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.NumColored(), 1u);  // best partial keeps the Asian node
  EXPECT_GE(outcome.preserved[0], 2u);
}

TEST(ColoringTest, BudgetExhaustionReported) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  ColoringOptions options;
  options.k = 2;
  options.step_budget = 1;  // absurdly small
  ColoringOutcome outcome = Color(r, constraints, options);
  EXPECT_TRUE(outcome.budget_exhausted || outcome.complete);
  // Both search passes together may take a couple of steps each.
  EXPECT_LE(outcome.steps, 4u);
}

TEST(ColoringTest, EmptyConstraintSetIsTriviallyComplete) {
  Relation r = MedicalRelation();
  ColoringOptions options;
  ColoringOutcome outcome = Color(r, {}, options);
  EXPECT_TRUE(outcome.complete);
  EXPECT_TRUE(outcome.chosen_clusters.empty());
}

TEST(ColoringTest, DeterministicForSeed) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  ColoringOptions options;
  options.k = 2;
  options.strategy = SelectionStrategy::kBasic;
  options.seed = 123;
  ColoringOutcome a = Color(r, constraints, options);
  ColoringOutcome b = Color(r, constraints, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.steps, b.steps);
}

// ------------------------------------------------------------ portfolio

TEST(PortfolioTest, SingleThreadEqualsSequential) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  ConstraintGraph graph = BuildConstraintGraph(r, constraints);
  ColoringOptions options;
  options.k = 2;
  options.seed = 7;
  ColoringOutcome sequential =
      ColorConstraints(r, constraints, graph, options);
  ColoringOutcome portfolio =
      ColorConstraintsPortfolio(r, constraints, graph, options, 1);
  EXPECT_EQ(sequential.assignment, portfolio.assignment);
  EXPECT_EQ(sequential.complete, portfolio.complete);
}

TEST(PortfolioTest, MultiThreadFindsValidColoring) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  ConstraintGraph graph = BuildConstraintGraph(r, constraints);
  ColoringOptions options;
  options.k = 2;
  ColoringOutcome outcome =
      ColorConstraintsPortfolio(r, constraints, graph, options, 4);
  EXPECT_TRUE(outcome.complete);
  // Valid coloring invariants regardless of which worker won.
  std::set<RowId> seen;
  for (const Cluster& cluster : outcome.chosen_clusters) {
    EXPECT_GE(cluster.size(), 2u);
    for (RowId row : cluster) EXPECT_TRUE(seen.insert(row).second);
  }
  for (size_t i = 0; i < constraints.size(); ++i) {
    EXPECT_GE(outcome.preserved[i], constraints[i].lower());
    EXPECT_LE(outcome.preserved[i], constraints[i].upper());
  }
}

TEST(PortfolioTest, HonorsTheCallersDeadline) {
  // The fig5 stress shape takes thousands of steps per search; with the
  // caller's token already tripped, every search must stop before its
  // first step instead of racing to a complete coloring.
  ProfileOptions profile_options;
  profile_options.seed = 1000;
  auto relation = GenerateProfile(DatasetProfile::kCredit, profile_options);
  ASSERT_TRUE(relation.ok());
  ConstraintGenOptions gen;
  gen.count = 24;
  gen.slack = 0.05;
  gen.min_support = 15;
  gen.target_conflict = 0.9;
  gen.seed = 1000;
  auto constraints = GenerateConstraints(*relation, gen);
  ASSERT_TRUE(constraints.ok());
  ConstraintGraph graph = BuildConstraintGraph(*relation, *constraints);

  ColoringOptions options;
  options.k = 10;
  options.seed = 1000;
  options.deadline = CancellationToken::Manual();
  options.deadline.RequestCancel();
  StopWatch watch;
  ColoringOutcome outcome =
      ColorConstraintsPortfolio(*relation, *constraints, graph, options, 4);
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
  EXPECT_FALSE(outcome.complete);
  EXPECT_TRUE(outcome.budget_exhausted);
  EXPECT_EQ(outcome.steps, 0u);
  EXPECT_EQ(outcome.NumColored(), 0u);
}

TEST(PortfolioTest, DivaWithPortfolioOption) {
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  options.portfolio_threads = 3;
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsKAnonymous(result->relation, 2));
  EXPECT_TRUE(SatisfiesAll(result->relation, constraints));
}

// ------------------------------------------------------------ memo cache

uint64_t CounterDelta(const std::vector<counters::Sample>& delta,
                      const std::string& name) {
  for (const counters::Sample& sample : delta) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

/// A heavy-overlap workload (nested refinement chains, tight bounds)
/// that forces real backtracking in the strict passes — the regime the
/// candidate memo exists for.
struct StressWorkload {
  Relation relation;
  ConstraintSet constraints;
};

StressWorkload MakeStressWorkload() {
  ProfileOptions profile_options;
  profile_options.seed = 1000;
  auto relation = GenerateProfile(DatasetProfile::kCredit, profile_options);
  EXPECT_TRUE(relation.ok());
  ConstraintGenOptions gen;
  gen.count = 24;
  gen.slack = 0.05;
  gen.min_support = 15;
  gen.target_conflict = 0.9;
  gen.seed = 1000;
  auto constraints = GenerateConstraints(*relation, gen);
  EXPECT_TRUE(constraints.ok());
  return {*std::move(relation), *std::move(constraints)};
}

ColoringOptions StressOptions() {
  ColoringOptions options;
  options.k = 10;
  options.strategy = SelectionStrategy::kMaxFanOut;
  options.seed = 1000;
  options.step_budget = 40000;
  return options;
}

bool SameOutcome(const ColoringOutcome& a, const ColoringOutcome& b) {
  return a.assignment == b.assignment && a.preserved == b.preserved &&
         a.chosen_clusters == b.chosen_clusters && a.steps == b.steps &&
         a.backtracks == b.backtracks && a.complete == b.complete;
}

// Regression guard for the hoisted QI-similarity sorts: one sort per
// constraint per ColorConstraints call, performed at SearchContext
// construction, regardless of how many search steps revisit each node.
// If per-visit sorting ever creeps back into CandidatesFor, this counter
// scales with steps and the assertion fails loudly.
TEST(ColoringTest, TargetSortsHoistedOncePerConstraint) {
  StressWorkload workload = MakeStressWorkload();
  ConstraintGraph graph =
      BuildConstraintGraph(workload.relation, workload.constraints);
  auto before = counters::Snapshot();
  ColoringOutcome outcome = ColorConstraints(
      workload.relation, workload.constraints, graph, StressOptions());
  auto delta = counters::Delta(before, counters::Snapshot());
  ASSERT_GT(outcome.steps, workload.constraints.size());
  EXPECT_EQ(CounterDelta(delta, "coloring.target_sorts"),
            workload.constraints.size());
}

TEST(ColoringBudgetTest, TrippedDeadlineSkipsTheTargetSortsAndTheSearch) {
  // The coloring polls its own deadline: a token tripped before the call
  // runs no QI-similarity target sort and no search step, and the
  // outcome is the empty budget-exhausted coloring.
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  ConstraintGraph graph = BuildConstraintGraph(r, constraints);
  ColoringOptions options;
  options.k = 2;
  options.deadline = CancellationToken::Manual();
  options.deadline.RequestCancel();
  auto before = counters::Snapshot();
  ColoringOutcome outcome = ColorConstraints(r, constraints, graph, options);
  auto delta = counters::Delta(before, counters::Snapshot());
  EXPECT_TRUE(outcome.budget_exhausted);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.steps, 0u);
  EXPECT_EQ(outcome.NumColored(), 0u);
  EXPECT_TRUE(outcome.chosen_clusters.empty());
  EXPECT_EQ(CounterDelta(delta, "coloring.target_sorts"), 0u);
}

TEST(ColoringTest, MemoReplaysAfterBacktracking) {
  StressWorkload workload = MakeStressWorkload();
  ConstraintGraph graph =
      BuildConstraintGraph(workload.relation, workload.constraints);
  auto before = counters::Snapshot();
  ColoringOutcome outcome = ColorConstraints(
      workload.relation, workload.constraints, graph, StressOptions());
  auto delta = counters::Delta(before, counters::Snapshot());
  // The workload must actually backtrack, and backtracking re-visits
  // must replay memoized candidate lists instead of re-enumerating.
  EXPECT_GT(outcome.backtracks, 0u);
  EXPECT_GT(CounterDelta(delta, "coloring.memo_hits"), 0u);
  EXPECT_GT(CounterDelta(delta, "coloring.memo_misses"), 0u);
  // The memo key includes the claimed-rows fingerprint restricted to the
  // node's targets: when a neighbor claims overlapping rows, the node
  // sees a different key and re-enumerates (a stale replay would hand
  // back clusters containing claimed rows). The observable consequence:
  // replayed candidates still never produce overlapping clusters or
  // bound violations.
  std::set<RowId> seen;
  for (const Cluster& cluster : outcome.chosen_clusters) {
    for (RowId row : cluster) {
      EXPECT_TRUE(seen.insert(row).second) << "overlap on row " << row;
    }
  }
  for (size_t j = 0; j < workload.constraints.size(); ++j) {
    EXPECT_LE(outcome.preserved[j], workload.constraints[j].upper()) << j;
  }
}

// A candidate is prepared (rows sorted, fingerprinted, contributions
// counted) when the search first tries it, never on enumeration: at most
// one preparation per step, far fewer than the candidates enumerated,
// and the same count at every thread width.
TEST(ColoringTest, PreparesOnlyTriedCandidates) {
  StressWorkload workload = MakeStressWorkload();
  ConstraintGraph graph =
      BuildConstraintGraph(workload.relation, workload.constraints);
  uint64_t reference = 0;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SetParallelThreads(threads);
    auto before = counters::Snapshot();
    ColoringOutcome outcome = ColorConstraints(
        workload.relation, workload.constraints, graph, StressOptions());
    auto delta = counters::Delta(before, counters::Snapshot());
    const uint64_t prepared =
        CounterDelta(delta, "coloring.candidates_prepared");
    const uint64_t enumerated = CounterDelta(delta, "clusterings.enumerated");
    EXPECT_GT(prepared, 0u) << "threads=" << threads;
    EXPECT_LE(prepared, outcome.steps) << "threads=" << threads;
    EXPECT_LT(prepared, enumerated) << "threads=" << threads;
    if (threads == 1) {
      reference = prepared;
    } else {
      EXPECT_EQ(prepared, reference) << "threads=" << threads;
    }
  }
  SetParallelThreads(1);
}

// The memo is a pure cache: candidate lists are a deterministic function
// of (free target set, deficit, headroom), so disabling it — or forcing
// constant evictions — must not move a single byte of the outcome. The
// greedy fallback pass starts from attempt 0's memo; it runs only when
// no strict attempt completes, which the workload guarantees, so the
// comparison against memo = false covers that handoff too.
TEST(ColoringTest, MemoDisabledOrEvictingIsByteIdentical) {
  StressWorkload workload = MakeStressWorkload();
  ConstraintGraph graph =
      BuildConstraintGraph(workload.relation, workload.constraints);

  ColoringOptions with_memo = StressOptions();
  ColoringOutcome baseline = ColorConstraints(
      workload.relation, workload.constraints, graph, with_memo);
  ASSERT_GT(baseline.backtracks, 0u);
  ASSERT_FALSE(baseline.complete) << "the greedy pass must run";

  ColoringOptions no_memo = StressOptions();
  no_memo.memo = false;
  ColoringOutcome without = ColorConstraints(
      workload.relation, workload.constraints, graph, no_memo);
  EXPECT_TRUE(SameOutcome(baseline, without));

  // A one-entry capacity forces an eviction on nearly every miss; the
  // search tree still must not change.
  ColoringOptions tiny_memo = StressOptions();
  tiny_memo.memo_capacity = 1;
  auto before = counters::Snapshot();
  ColoringOutcome evicting = ColorConstraints(
      workload.relation, workload.constraints, graph, tiny_memo);
  auto delta = counters::Delta(before, counters::Snapshot());
  EXPECT_TRUE(SameOutcome(baseline, evicting));
  EXPECT_GT(CounterDelta(delta, "coloring.memo_evictions"), 0u);
}

// ------------------------------------------------------------ widths

std::vector<counters::Sample> DeterministicDelta(
    const std::vector<counters::Sample>& before) {
  return counters::FilterScope(counters::Delta(before, counters::Snapshot()),
                               counters::Scope::kDeterministic);
}

/// The connected 3,000-row Pop-Syn instance of DivaOneComponentPinTest
/// (tests/diva_test.cc), with the coloring options RunDiva derives from
/// default DivaOptions at k = 10. Attempt 0 ends short of a complete
/// coloring and attempt 1 completes it.
StressWorkload MakeOneComponentPopSyn() {
  ProfileOptions profile_options;
  profile_options.num_rows = 3000;
  profile_options.seed = 7;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  EXPECT_TRUE(relation.ok());
  ConstraintGenOptions gen;
  gen.count = 6;
  gen.target_conflict = 0.9;
  gen.seed = 7;
  auto constraints = GenerateConstraints(*relation, gen);
  EXPECT_TRUE(constraints.ok());
  return {*std::move(relation), *std::move(constraints)};
}

// The restart attempts run one after another and candidate enumeration
// runs on ParallelFor: the outcome AND every deterministic counter —
// steps, backtracks, attempts, memo traffic — are byte-identical at
// every thread width.
TEST(ColoringWidthTest, OutcomeAndCountersAgreeAcrossThreadWidths) {
  ColoringOptions popsyn_options;
  popsyn_options.k = 10;
  const std::pair<StressWorkload, ColoringOptions> inputs[] = {
      {MakeStressWorkload(), StressOptions()},
      {MakeOneComponentPopSyn(), popsyn_options},
  };
  for (size_t input = 0; input < 2; ++input) {
    const auto& [workload, options] = inputs[input];
    ConstraintGraph graph =
        BuildConstraintGraph(workload.relation, workload.constraints);
    ColoringOutcome reference;
    std::vector<counters::Sample> reference_delta;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SetParallelThreads(threads);
      auto before = counters::Snapshot();
      ColoringOutcome outcome = ColorConstraints(
          workload.relation, workload.constraints, graph, options);
      std::vector<counters::Sample> delta = DeterministicDelta(before);
      if (threads == 1) {
        reference = std::move(outcome);
        reference_delta = std::move(delta);
        continue;
      }
      EXPECT_TRUE(SameOutcome(reference, outcome))
          << "input=" << input << " threads=" << threads;
      EXPECT_EQ(reference_delta, delta)
          << "input=" << input << " threads=" << threads;
    }
    if (input == 1) {
      EXPECT_TRUE(reference.complete);
      EXPECT_EQ(CounterDelta(reference_delta, "coloring.attempts"), 2u);
    }
  }
  SetParallelThreads(1);
}

// ------------------------------------------------------------ pins

/// FNV-1a over the chosen clusters in their canonical order (sizes
/// delimit the clusters, so a moved boundary changes the hash).
uint64_t HashClusters(const Clustering& clusters) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](uint64_t value) {
    hash ^= value + 1;
    hash *= 1099511628211ULL;
  };
  for (const Cluster& cluster : clusters) {
    mix(cluster.size());
    for (RowId row : cluster) mix(row);
  }
  return hash;
}

struct PinnedShape {
  const char* name;
  DatasetProfile profile;
  size_t num_rows;  // 0 = profile default
  size_t count;
  double slack;
  double conflict;
  size_t min_support;
  uint64_t step_budget;
  uint64_t steps;
  uint64_t backtracks;
  uint64_t clusters_hash;
};

// The two bench_coloring shapes (bench/bench_coloring.cpp kShapes) with
// their pinned search trajectory. Every accelerator of the search (memo,
// memo handoff) must leave these numbers exactly as they
// are; a change here is a change of the paper algorithm's behaviour.
constexpr PinnedShape kPinnedShapes[] = {
    {"fig4_popsyn", DatasetProfile::kPopSyn, 4000, 12, 0.3, 0.4, 2, 150000,
     4278, 162, 5420480117871492966ULL},
    {"fig5_stress", DatasetProfile::kCredit, 0, 24, 0.05, 0.9, 15, 40000,
     6036, 355, 1658943302211772218ULL},
};

TEST(ColoringPinTest, BenchShapesKeepTheirTrajectoryAtWidthsOneAndFour) {
  for (const PinnedShape& shape : kPinnedShapes) {
    ProfileOptions profile_options;
    if (shape.num_rows > 0) profile_options.num_rows = shape.num_rows;
    profile_options.seed = 1000;
    auto relation = GenerateProfile(shape.profile, profile_options);
    ASSERT_TRUE(relation.ok()) << shape.name;
    ConstraintGenOptions gen;
    gen.count = shape.count;
    gen.slack = shape.slack;
    gen.min_support = shape.min_support;
    gen.target_conflict = shape.conflict;
    gen.seed = 1000;
    auto constraints = GenerateConstraints(*relation, gen);
    ASSERT_TRUE(constraints.ok()) << shape.name;
    ConstraintGraph graph = BuildConstraintGraph(*relation, *constraints);

    ColoringOptions options;
    options.k = 10;
    options.strategy = SelectionStrategy::kMaxFanOut;
    options.seed = 1000;
    options.step_budget = shape.step_budget;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetParallelThreads(threads);
      ColoringOutcome outcome =
          ColorConstraints(*relation, *constraints, graph, options);
      EXPECT_EQ(outcome.steps, shape.steps)
          << shape.name << " threads=" << threads;
      EXPECT_EQ(outcome.backtracks, shape.backtracks)
          << shape.name << " threads=" << threads;
      EXPECT_EQ(HashClusters(outcome.chosen_clusters), shape.clusters_hash)
          << shape.name << " threads=" << threads;
    }
  }
  SetParallelThreads(1);
}

TEST(ColoringTest, PreservedMatchesChosenClusters) {
  // Invariant: outcome.preserved[j] equals the sum of contributions of
  // the distinct chosen clusters.
  Relation r = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  ColoringOptions options;
  options.k = 2;
  ColoringOutcome outcome = Color(r, constraints, options);
  ASSERT_TRUE(outcome.complete);
  for (size_t j = 0; j < constraints.size(); ++j) {
    const std::vector<RowId> targets = testing::NaiveTargets(r, constraints[j]);
    uint64_t expected = 0;
    for (const Cluster& cluster : outcome.chosen_clusters) {
      bool all_match = true;
      for (RowId row : cluster) {
        if (!std::binary_search(targets.begin(), targets.end(), row)) {
          all_match = false;
          break;
        }
      }
      if (all_match) expected += cluster.size();
    }
    EXPECT_EQ(outcome.preserved[j], expected) << "constraint " << j;
  }
}

}  // namespace
}  // namespace diva
