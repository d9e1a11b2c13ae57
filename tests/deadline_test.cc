#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/timer.h"
#include "common/trace.h"
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

// A token tripped before the run reaches the baseline stops each call
// before it gathers its rows: k-member never starts (no span), the
// anytime Mondrian fallback publishes, and the audit still runs.
TEST(DivaDeadlineTest, PreTrippedTokenSkipsTheBaselineGather) {
  ConstraintSet constraints;
  Relation relation = AnytimeWorkload(&constraints);
  DivaOptions options;
  options.k = 10;
  options.baseline = BaselineAlgorithm::kKMember;
  options.audit = true;
  options.cancel = CancellationToken::Manual();
  options.cancel.RequestCancel();
  trace::Enable();
  auto result = RunDiva(relation, constraints, options);
  trace::Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const trace::SpanEvent& event : trace::Collect()) {
    EXPECT_NE(std::string(event.name), "baseline/kmember");
  }
  EXPECT_TRUE(result->report.baseline_degraded);
  EXPECT_TRUE(result->report.audited);
  EXPECT_TRUE(IsKAnonymous(result->relation, 10));
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
