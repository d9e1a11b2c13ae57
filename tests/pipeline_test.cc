#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "anon/privacy.h"
#include "constraint/parser.h"
#include "core/diva.h"
#include "datagen/profiles.h"
#include "metrics/metrics.h"
#include "relation/csv.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalSchema;

/// Full pipeline: CSV in -> parse constraints -> DIVA -> CSV out ->
/// re-read -> verify k-anonymity and Sigma on the round-tripped data.
TEST(PipelineTest, CsvToDivaToCsvRoundTrip) {
  std::ostringstream csv;
  ASSERT_TRUE(WriteCsv(testing::MedicalRelation(), csv).ok());

  std::istringstream in(csv.str());
  auto relation = ReadCsv(in, MedicalSchema());
  ASSERT_TRUE(relation.ok());

  auto constraints = ParseConstraintSet(*MedicalSchema(),
                                        "ETH[Asian] in [2,5]\n"
                                        "ETH[African] in [1,3]\n"
                                        "CTY[Vancouver] in [2,4]\n");
  ASSERT_TRUE(constraints.ok());

  DivaOptions options;
  options.audit = true;  // every pipeline test audits its output
  options.k = 2;
  auto result = RunDiva(*relation, *constraints, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report.audited);

  std::ostringstream out_csv;
  ASSERT_TRUE(WriteCsv(result->relation, out_csv).ok());
  std::istringstream back(out_csv.str());
  auto round_tripped = ReadCsv(back, MedicalSchema());
  ASSERT_TRUE(round_tripped.ok());

  EXPECT_TRUE(IsKAnonymous(*round_tripped, 2));
  EXPECT_TRUE(SatisfiesAll(*round_tripped, *constraints));
  EXPECT_EQ(CountStars(*round_tripped), CountStars(result->relation));
}

/// DIVA on a profile-scale workload with constraints loaded from text —
/// the shape of a real deployment.
TEST(PipelineTest, ProfileWorkloadEndToEnd) {
  ProfileOptions profile_options;
  profile_options.num_rows = 1500;
  profile_options.seed = 77;
  auto cohort = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(cohort.ok());

  auto constraints = DefaultConstraints(DatasetProfile::kPopSyn, *cohort, 77);
  ASSERT_TRUE(constraints.ok());

  DivaOptions options;
  options.audit = true;  // every pipeline test audits its output
  options.k = 5;
  options.coloring_budget = 50000;
  auto result = RunDiva(*cohort, *constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(IsKAnonymous(result->relation, 5));
  for (const auto& constraint : *constraints) {
    EXPECT_LE(testing::NaiveTargets(result->relation, constraint).size(),
              constraint.upper())
        << constraint.ToString();
  }
  // Identifier column: present but fully blanked in the published data.
  EXPECT_EQ(result->relation.NumAttributes(), cohort->NumAttributes());
  size_t id_col = *cohort->schema().IndexOf("ID");
  for (RowId row = 0; row < result->relation.NumRows(); ++row) {
    EXPECT_TRUE(result->relation.IsSuppressed(row, id_col));
  }
}

/// Failure injection: malformed inputs surface as clean Status errors at
/// every stage — never a crash, never a silently wrong output.
TEST(PipelineTest, FailureInjection) {
  auto schema = MedicalSchema();

  // Bad CSV (arity).
  std::istringstream bad_csv("GEN,ETH,AGE,PRV,CTY,DIAG\nonly,three,cols\n");
  EXPECT_FALSE(ReadCsv(bad_csv, schema).ok());

  // Bad constraint text.
  EXPECT_FALSE(ParseConstraintSet(*schema, "ETH{Asian} in [2,5]").ok());

  // Unknown attribute in constraint.
  EXPECT_FALSE(ParseConstraintSet(*schema, "ZODIAC[Leo] in [1,2]").ok());

  // k larger than the relation (strict and non-strict agree here).
  Relation r = testing::MedicalRelation();
  DivaOptions options;
  options.audit = true;  // every pipeline test audits its output
  options.k = 100;
  EXPECT_EQ(RunDiva(r, {}, options).status().code(),
            StatusCode::kInfeasible);

  // Unsatisfiable Sigma in strict mode.
  auto impossible = ParseConstraintSet(*schema, "ETH[Asian] in [9,9]");
  ASSERT_TRUE(impossible.ok());
  options.k = 2;
  options.strict = true;
  EXPECT_EQ(RunDiva(r, *impossible, options).status().code(),
            StatusCode::kInfeasible);

  // Same input in best-effort mode still yields a k-anonymous relation.
  options.strict = false;
  auto best_effort = RunDiva(r, *impossible, options);
  ASSERT_TRUE(best_effort.ok());
  EXPECT_TRUE(IsKAnonymous(best_effort->relation, 2));
  EXPECT_FALSE(best_effort->report.unsatisfied.empty());
}

/// The pipeline is bit-for-bit deterministic in (input, seed).
TEST(PipelineTest, DeterministicAcrossWholePipeline) {
  ProfileOptions profile_options;
  profile_options.num_rows = 800;
  profile_options.seed = 123;
  auto a = GenerateProfile(DatasetProfile::kCredit, profile_options);
  auto b = GenerateProfile(DatasetProfile::kCredit, profile_options);
  ASSERT_TRUE(a.ok() && b.ok());

  auto ca = DefaultConstraints(DatasetProfile::kCredit, *a, 9);
  auto cb = DefaultConstraints(DatasetProfile::kCredit, *b, 9);
  ASSERT_TRUE(ca.ok() && cb.ok());

  DivaOptions options;
  options.audit = true;  // every pipeline test audits its output
  options.k = 4;
  options.seed = 99;
  options.coloring_budget = 30000;
  auto ra = RunDiva(*a, *ca, options);
  auto rb = RunDiva(*b, *cb, options);
  ASSERT_TRUE(ra.ok() && rb.ok());

  std::ostringstream csv_a;
  std::ostringstream csv_b;
  ASSERT_TRUE(WriteCsv(ra->relation, csv_a).ok());
  ASSERT_TRUE(WriteCsv(rb->relation, csv_b).ok());
  EXPECT_EQ(csv_a.str(), csv_b.str());
}

/// k-anonymity + l-diversity + Sigma together.
TEST(PipelineTest, CombinedPrivacyModels) {
  ProfileOptions profile_options;
  profile_options.num_rows = 1200;
  profile_options.seed = 31;
  auto cohort = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(cohort.ok());
  auto constraints = DefaultConstraints(DatasetProfile::kPopSyn, *cohort, 31);
  ASSERT_TRUE(constraints.ok());

  DivaOptions options;
  options.audit = true;  // every pipeline test audits its output
  options.k = 6;
  options.l_diversity = 3;
  options.coloring_budget = 50000;
  auto result = RunDiva(*cohort, *constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(IsKAnonymous(result->relation, 6));
  EXPECT_TRUE(IsDistinctLDiverse(result->relation, 3));
}

}  // namespace
}  // namespace diva
