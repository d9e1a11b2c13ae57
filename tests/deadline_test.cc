#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/diva.h"
#include "core/report_json.h"
#include "datagen/profiles.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalConstraints;
using testing::MedicalRelation;
using testing::MedicalSchema;

/// Busy-waits on the monotonic clock (the same clock deadlines read).
void SpinFor(double seconds) {
  double start = MonotonicSeconds();
  while (MonotonicSeconds() - start < seconds) {
  }
}

// ------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline deadline;
  EXPECT_TRUE(deadline.is_infinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.RemainingSeconds(), 1e9);
  EXPECT_TRUE(Deadline::Infinite().is_infinite());
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).Expired());
  EXPECT_LE(Deadline::AfterMillis(-1000).RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, FutureDeadlineCountsDown) {
  Deadline deadline = Deadline::AfterSeconds(60.0);
  EXPECT_FALSE(deadline.is_infinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.RemainingSeconds(), 0.0);
  EXPECT_LE(deadline.RemainingSeconds(), 60.0);
}

TEST(DeadlineTest, ExpiresOnSchedule) {
  Deadline deadline = Deadline::AfterMillis(1);
  SpinFor(0.005);
  EXPECT_TRUE(deadline.Expired());
  EXPECT_LE(deadline.RemainingSeconds(), 0.0);
}

// -------------------------------------------------- CancellationToken

TEST(CancellationTokenTest, NullTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.CanBeCancelled());
  EXPECT_FALSE(token.Cancelled());
  token.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(token.Cancelled());
  EXPECT_TRUE(token.deadline().is_infinite());
}

TEST(CancellationTokenTest, ManualTokenLatchesAndCopiesShareState) {
  CancellationToken token = CancellationToken::Manual();
  EXPECT_TRUE(token.CanBeCancelled());
  EXPECT_FALSE(token.Cancelled());

  CancellationToken copy = token;
  copy.RequestCancel();
  EXPECT_TRUE(token.Cancelled()) << "copies must share the signal";
  EXPECT_TRUE(token.Cancelled()) << "tokens never un-trip";
}

TEST(CancellationTokenTest, DeadlineTokenTripsOnExpiry) {
  CancellationToken token =
      CancellationToken::WithDeadline(Deadline::AfterMillis(1));
  SpinFor(0.005);
  EXPECT_TRUE(token.Cancelled());
  EXPECT_TRUE(token.Cancelled()) << "expiry latches";
}

TEST(CancellationTokenTest, ManualCancelBeatsAFarDeadline) {
  CancellationToken token =
      CancellationToken::WithDeadline(Deadline::AfterSeconds(60.0));
  EXPECT_FALSE(token.Cancelled());
  EXPECT_FALSE(token.deadline().is_infinite());
  token.RequestCancel();
  EXPECT_TRUE(token.Cancelled());
}

TEST(DeadlineStatusTest, NamesThePhase) {
  Status status = DeadlineExceededStatus("clustering");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("clustering"), std::string::npos);
}

TEST(EnvDeadlineTest, ParsesTheKnob) {
  ASSERT_EQ(setenv("DIVA_DEADLINE_MS", "250", 1), 0);
  EXPECT_EQ(EnvDeadlineMillis(), 250);
  ASSERT_EQ(setenv("DIVA_DEADLINE_MS", "junk", 1), 0);
  EXPECT_EQ(EnvDeadlineMillis(), 0);
  ASSERT_EQ(setenv("DIVA_DEADLINE_MS", "-5", 1), 0);
  EXPECT_EQ(EnvDeadlineMillis(), 0);
  ASSERT_EQ(unsetenv("DIVA_DEADLINE_MS"), 0);
  EXPECT_EQ(EnvDeadlineMillis(), 0);
}

// ------------------------------------------- pool-level cancellation

TEST(PoolCancellationTest, WithoutTokenParallelForCompletesEverything) {
  SetParallelThreads(4);
  std::vector<char> done(1000, 0);
  size_t prefix = ParallelFor(1000, 8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) done[i] = 1;
  });
  EXPECT_EQ(prefix, 1000u);
  for (size_t i = 0; i < done.size(); ++i) EXPECT_EQ(done[i], 1) << i;
}

TEST(PoolCancellationTest, PreTrippedTokenRunsNoChunks) {
  SetParallelThreads(4);
  CancellationToken token = CancellationToken::Manual();
  token.RequestCancel();
  ScopedLoopCancellation scope(token);
  std::atomic<size_t> ran{0};
  size_t prefix = ParallelFor(1000, 8, [&](size_t begin, size_t end) {
    ran.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(prefix, 0u);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(PoolCancellationTest, SequentialCancelStopsAtAnExactPrefix) {
  SetParallelThreads(1);
  CancellationToken token = CancellationToken::Manual();
  ScopedLoopCancellation scope(token);
  std::vector<char> executed(256, 0);
  size_t prefix = ParallelFor(256, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      executed[i] = 1;
      if (i == 64) token.RequestCancel();
    }
  });
  // Width 1 runs chunks in index order, so the prefix is exact: the
  // cancelling chunk finishes, nothing after it starts.
  EXPECT_EQ(prefix, 65u);
  for (size_t i = 0; i < executed.size(); ++i) {
    EXPECT_EQ(executed[i] != 0, i < prefix) << i;
  }
}

TEST(PoolCancellationTest, ParallelCancelCompletesExactlyThePrefix) {
  SetParallelThreads(4);
  CancellationToken token = CancellationToken::Manual();
  ScopedLoopCancellation scope(token);
  std::vector<char> executed(4096, 0);
  size_t prefix = ParallelFor(4096, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      executed[i] = 1;
      if (i == 64) token.RequestCancel();
    }
  });
  // Chunks are claimed in ascending order and claimed chunks drain, so
  // the completed work is the prefix [0, prefix): the cancelling index
  // is inside it, the tail was never claimed, and no index outside the
  // prefix ran.
  EXPECT_GE(prefix, 65u);
  EXPECT_LT(prefix, 4096u);
  for (size_t i = 0; i < executed.size(); ++i) {
    EXPECT_EQ(executed[i] != 0, i < prefix) << i;
  }
}

TEST(PoolCancellationTest, ScopedInstallationNestsAndRestores) {
  EXPECT_FALSE(CurrentLoopCancellation().CanBeCancelled());
  CancellationToken outer = CancellationToken::Manual();
  {
    ScopedLoopCancellation outer_scope(outer);
    EXPECT_TRUE(CurrentLoopCancellation().CanBeCancelled());
    outer.RequestCancel();
    EXPECT_TRUE(CurrentLoopCancellation().Cancelled())
        << "the installed token is the caller's token, not a copy signal";
    {
      ScopedLoopCancellation inner_scope{CancellationToken()};
      EXPECT_FALSE(CurrentLoopCancellation().CanBeCancelled());
    }
    EXPECT_TRUE(CurrentLoopCancellation().Cancelled());
  }
  EXPECT_FALSE(CurrentLoopCancellation().CanBeCancelled());
}

// --------------------------------------- coloring budget exhaustion

TEST(ColoringBudgetTest, ExhaustedBudgetPublishesBestEffort) {
  Relation relation = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  options.coloring_budget = 1;  // cannot color three constraints
  auto result = RunDiva(relation, constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->report.budget_exhausted);
  EXPECT_FALSE(result->report.clustering_complete);
  EXPECT_FALSE(result->report.deadline_exceeded);
  EXPECT_TRUE(IsKAnonymous(result->relation, 2));
}

TEST(ColoringBudgetTest, ExhaustedBudgetIsAnErrorInStrictMode) {
  Relation relation = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  options.coloring_budget = 1;
  options.strict = true;
  auto result = RunDiva(relation, constraints, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

// ------------------------------------------------ anytime RunDiva

Relation AnytimeWorkload(ConstraintSet* constraints) {
  ProfileOptions profile_options;
  profile_options.num_rows = 2000;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  DIVA_CHECK_MSG(relation.ok(), relation.status().ToString());
  auto sigma = DefaultConstraints(DatasetProfile::kPopSyn, *relation);
  DIVA_CHECK_MSG(sigma.ok(), sigma.status().ToString());
  *constraints = std::move(sigma).value();
  return std::move(relation).value();
}

TEST(DivaDeadlineTest, NoDeadlineReportsNothingDegraded) {
  Relation relation = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  options.deadline_ms = 0;
  auto result = RunDiva(relation, constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->report.deadline_exceeded);
  EXPECT_FALSE(result->report.baseline_degraded);
  EXPECT_FALSE(result->report.integrate_skipped);
  EXPECT_FALSE(result->report.privacy_truncated);
}

TEST(DivaDeadlineTest, TinyDeadlinePublishesDegradedButAuditedOutput) {
  ConstraintSet constraints;
  Relation relation = AnytimeWorkload(&constraints);

  DivaOptions options;
  options.k = 10;
  options.strategy = SelectionStrategy::kBasic;
  options.deadline_ms = 1;
  options.audit = true;  // a deadline never skips the self-audit
  StopWatch watch;
  auto result = RunDiva(relation, constraints, options);
  double elapsed = watch.ElapsedSeconds();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result->report.deadline_exceeded);
  EXPECT_FALSE(result->report.clustering_complete);
  EXPECT_TRUE(result->report.baseline_degraded);
  EXPECT_TRUE(result->report.integrate_skipped);
  EXPECT_TRUE(result->report.audited);
  EXPECT_TRUE(IsKAnonymous(result->relation, 10));

  // Anytime: expiry short-circuits the remaining search instead of
  // finishing it — a full Basic run on this workload takes far longer.
  EXPECT_LT(elapsed, 10.0);

  // Per-phase timings come from one monotonic clock and are filled even
  // when the deadline cut a phase short.
  EXPECT_GT(result->report.clustering_seconds, 0.0);
  EXPECT_GT(result->report.audit_seconds, 0.0);
  EXPECT_GT(result->report.total_seconds, 0.0);

  std::string json = ReportToJson(result->report);
  EXPECT_NE(json.find("\"deadline_exceeded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"audit_s\":"), std::string::npos);
}

TEST(DivaDeadlineTest, StrictModeTurnsExpiryIntoAnError) {
  ConstraintSet constraints;
  Relation relation = AnytimeWorkload(&constraints);

  DivaOptions options;
  options.k = 10;
  options.strategy = SelectionStrategy::kBasic;
  options.deadline_ms = 1;
  options.strict = true;
  auto result = RunDiva(relation, constraints, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace diva
