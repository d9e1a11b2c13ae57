// Differential testing: DIVA versus the baseline k-anonymizers, and the
// pipeline versus itself under execution knobs that must not change the
// answer (thread width, a generous deadline). Instances come from the
// same seeded generator as tests/fuzz_property_test.cc, so a failure
// here reproduces with the fuzz suite's seed.
//
// The headline property is the paper's: when DIVA's clustering is
// complete, its suppression-only output satisfies Sigma at a star cost
// competitive with any baseline that also happens to satisfy Sigma —
// baselines pay for diversity by luck, DIVA by construction. Per
// instance the heuristics can edge DIVA out by a few stars (cluster
// formation is greedy on both sides), so the per-instance bound allows
// a small regret and the aggregate over the sweep must dominate
// outright, mirroring the paper's averaged comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "anon/anonymizer.h"
#include "common/counters.h"
#include "core/diva.h"
#include "metrics/metrics.h"
#include "relation/csv.h"
#include "tests/test_util.h"
#include "verify/auditor.h"

namespace diva {
namespace {

using diva::testing::FuzzWorkload;
using diva::testing::MakeWorkload;

/// Stars added relative to the (unsuppressed-cell) input.
size_t CountStars(const Relation& input, const Relation& output) {
  size_t stars = 0;
  for (RowId row = 0; row < input.NumRows(); ++row) {
    for (size_t col = 0; col < input.NumAttributes(); ++col) {
      if (output.At(row, col) == kSuppressed &&
          input.At(row, col) != kSuppressed) {
        ++stars;
      }
    }
  }
  return stars;
}

std::string ToCsvBytes(const Relation& relation) {
  std::ostringstream out;
  DIVA_CHECK(WriteCsv(relation, out).ok());
  return out.str();
}

/// Deterministic-scope samples that actually moved during the run.
/// Zero-delta entries are dropped before comparing: whether a
/// never-incremented name appears in a delta at all depends on when some
/// other code first registered it, which is not a property of this run.
std::vector<counters::Sample> MovedDeterministic(
    const std::vector<counters::Sample>& delta) {
  std::vector<counters::Sample> moved;
  for (const counters::Sample& sample :
       counters::FilterScope(delta, counters::Scope::kDeterministic)) {
    if (sample.value != 0 || sample.sum != 0) moved.push_back(sample);
  }
  return moved;
}

/// First and last fuzz seed of the sweep (shared by the per-instance
/// parameterized tests and the aggregate comparison).
constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 25;  // exclusive

/// Star counts of one seed's comparison, or why the seed is not
/// comparable.
struct Comparison {
  std::string skip_reason;  // empty when the seed is comparable
  size_t diva_stars = 0;
  std::vector<std::pair<BaselineAlgorithm, size_t>> baseline_stars;
};

/// Runs DIVA and all three baselines on the seeded instance. The seed is
/// not comparable when k exceeds the relation, Sigma is empty, DIVA did
/// not complete, or some algorithm's output violates Sigma (a baseline
/// that broke a constraint "saved" stars by not doing the work).
Comparison CompareSuppression(uint64_t seed) {
  Comparison comparison;
  FuzzWorkload workload = MakeWorkload(seed);
  if (workload.relation.NumRows() < workload.k) {
    comparison.skip_reason = "k exceeds the relation's rows";
    return comparison;
  }
  if (workload.constraints.empty()) {
    comparison.skip_reason = "no constraints were generated";
    return comparison;
  }

  DivaOptions options;
  options.k = workload.k;
  options.seed = seed;
  auto diva_result =
      RunDiva(workload.relation, workload.constraints, options);
  if (!diva_result.ok()) {
    comparison.skip_reason =
        "DIVA did not complete: " + diva_result.status().ToString();
    return comparison;
  }
  if (!diva_result->report.clustering_complete) {
    comparison.skip_reason = "DIVA did not complete its diverse clustering";
    return comparison;
  }
  if (!SatisfiesAll(diva_result->relation, workload.constraints)) {
    comparison.skip_reason = "DIVA's output violates Sigma";
    return comparison;
  }
  comparison.diva_stars =
      CountStars(workload.relation, diva_result->relation);

  for (BaselineAlgorithm algorithm :
       {BaselineAlgorithm::kKMember, BaselineAlgorithm::kOka,
        BaselineAlgorithm::kMondrian}) {
    std::string name = BaselineAlgorithmToString(algorithm);
    DivaOptions factory;
    factory.baseline = algorithm;
    factory.anonymizer.seed = seed;
    auto anonymizer = MakeBaselineAnonymizer(factory);
    auto baseline =
        Anonymize(anonymizer.get(), workload.relation, workload.k);
    if (!baseline.ok()) {
      comparison.skip_reason =
          name + " failed: " + baseline.status().ToString();
      return comparison;
    }
    if (!SatisfiesAll(*baseline, workload.constraints)) {
      comparison.skip_reason = name + "'s output violates Sigma";
      return comparison;
    }
    comparison.baseline_stars.emplace_back(
        algorithm, CountStars(workload.relation, *baseline));
  }
  return comparison;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, DivaSuppressionCompetitivePerInstance) {
  Comparison comparison = CompareSuppression(GetParam());
  if (!comparison.skip_reason.empty()) {
    GTEST_SKIP() << "seed " << GetParam()
                 << " not comparable: " << comparison.skip_reason;
  }
  for (const auto& [algorithm, stars] : comparison.baseline_stars) {
    // Bounded regret: greedy cluster formation on both sides means a
    // heuristic can edge DIVA out by a few stars on one instance.
    size_t slack = std::max<size_t>(5, stars / 10);
    EXPECT_LE(comparison.diva_stars, stars + slack)
        << BaselineAlgorithmToString(algorithm) << " seed " << GetParam();
  }
}

TEST(DifferentialAggregateTest, DivaSuppressesLeastOverTheSweep) {
  size_t comparable = 0;
  size_t diva_total = 0;
  std::map<BaselineAlgorithm, size_t> baseline_totals;
  for (uint64_t seed = kFirstSeed; seed < kLastSeed; ++seed) {
    Comparison comparison = CompareSuppression(seed);
    if (!comparison.skip_reason.empty()) continue;
    ++comparable;
    diva_total += comparison.diva_stars;
    for (const auto& [algorithm, stars] : comparison.baseline_stars) {
      baseline_totals[algorithm] += stars;
    }
  }
  // The sweep must actually exercise the comparison.
  ASSERT_GE(comparable, 3u);
  for (const auto& [algorithm, total] : baseline_totals) {
    EXPECT_LE(diva_total, total)
        << BaselineAlgorithmToString(algorithm) << " over " << comparable
        << " instances";
  }
}

// A floor on how many sweep seeds the comparison actually covers, so a
// change that makes more seeds skip fails here instead of passing
// silently. Every skipped seed's reason is printed.
TEST(DifferentialAggregateTest, ComparableSeedsStayAtTheFloor) {
  constexpr size_t kComparableFloor = 4;
  size_t comparable = 0;
  for (uint64_t seed = kFirstSeed; seed < kLastSeed; ++seed) {
    Comparison comparison = CompareSuppression(seed);
    if (comparison.skip_reason.empty()) {
      ++comparable;
    } else {
      std::cout << "seed " << seed << " skipped: " << comparison.skip_reason
                << "\n";
    }
  }
  EXPECT_GE(comparable, kComparableFloor)
      << "of " << (kLastSeed - kFirstSeed) << " seeds";
}

TEST_P(DifferentialTest, ThreadWidthNeverChangesTheAuditedOutput) {
  FuzzWorkload workload = MakeWorkload(GetParam());
  if (workload.relation.NumRows() < workload.k) GTEST_SKIP();

  std::string bytes_at_one;
  std::vector<counters::Sample> deterministic_at_one;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    DivaOptions options;
    options.k = workload.k;
    options.seed = GetParam() * 17 + 3;
    options.threads = threads;
    auto result =
        RunDiva(workload.relation, workload.constraints, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // Independently audited, not just hashed: both outputs are valid
    // suppression-only k-anonymizations of the same input. Constraints
    // the run itself declared unsatisfiable are waived, exactly as the
    // pipeline's self-audit waives them.
    AuditOptions audit_options;
    audit_options.waived_constraints = result->report.unsatisfied;
    auto audit =
        AuditAnonymization(workload.relation, result->relation, workload.k,
                           workload.constraints, audit_options);
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();
    EXPECT_TRUE(audit->ok()) << audit->ToString() << " threads="
                                     << threads << " seed " << GetParam();

    // ...and byte-identical to each other, deterministic-scope counters
    // included (execution counters legitimately differ with width).
    std::string bytes = ToCsvBytes(result->relation);
    std::vector<counters::Sample> deterministic =
        MovedDeterministic(result->report.counters);
    if (threads == 1) {
      bytes_at_one = std::move(bytes);
      deterministic_at_one = std::move(deterministic);
    } else {
      EXPECT_EQ(bytes, bytes_at_one) << "seed " << GetParam();
      EXPECT_EQ(deterministic, deterministic_at_one)
          << "seed " << GetParam();
    }
  }
}

TEST_P(DifferentialTest, ShardExecutionNeverChangesTheAuditedOutput) {
  FuzzWorkload workload = MakeWorkload(GetParam());
  if (workload.relation.NumRows() < workload.k) GTEST_SKIP();

  std::string bytes_without;
  std::vector<counters::Sample> deterministic_without;
  for (bool shard : {false, true}) {
    DivaOptions options;
    options.k = workload.k;
    options.seed = GetParam() * 29 + 7;
    options.shard = shard;
    options.threads = shard ? 8 : 1;
    auto result =
        RunDiva(workload.relation, workload.constraints, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // Both execution modes must pass the independent audit and publish
    // the same bytes — the shard plan, not the execution mode, fixes
    // every search decision (core/shard.h).
    AuditOptions audit_options;
    audit_options.waived_constraints = result->report.unsatisfied;
    auto audit =
        AuditAnonymization(workload.relation, result->relation, workload.k,
                           workload.constraints, audit_options);
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();
    EXPECT_TRUE(audit->ok())
        << audit->ToString() << " shard=" << shard << " seed " << GetParam();

    std::string bytes = ToCsvBytes(result->relation);
    std::vector<counters::Sample> deterministic =
        MovedDeterministic(result->report.counters);
    if (!shard) {
      bytes_without = std::move(bytes);
      deterministic_without = std::move(deterministic);
    } else {
      EXPECT_EQ(bytes, bytes_without) << "seed " << GetParam();
      EXPECT_EQ(deterministic, deterministic_without)
          << "seed " << GetParam();
    }
  }
}

TEST_P(DifferentialTest, GenerousDeadlineNeverChangesTheAuditedOutput) {
  FuzzWorkload workload = MakeWorkload(GetParam());
  if (workload.relation.NumRows() < workload.k) GTEST_SKIP();

  std::string bytes_without;
  for (int64_t deadline_ms : {int64_t{0}, int64_t{600000}}) {
    DivaOptions options;
    options.k = workload.k;
    options.seed = GetParam() * 13 + 5;
    options.deadline_ms = deadline_ms;
    auto result =
        RunDiva(workload.relation, workload.constraints, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->report.deadline_exceeded) << "seed " << GetParam();

    AuditOptions audit_options;
    audit_options.waived_constraints = result->report.unsatisfied;
    auto audit =
        AuditAnonymization(workload.relation, result->relation, workload.k,
                           workload.constraints, audit_options);
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();
    EXPECT_TRUE(audit->ok())
        << audit->ToString() << " deadline_ms=" << deadline_ms << " seed "
        << GetParam();

    std::string bytes = ToCsvBytes(result->relation);
    if (deadline_ms == 0) {
      bytes_without = std::move(bytes);
    } else {
      EXPECT_EQ(bytes, bytes_without) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 25),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace diva
