#include "verify/auditor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "anon/suppress.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "constraint/parser.h"
#include "core/diva.h"
#include "hierarchy/taxonomy.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalConstraints;
using testing::MedicalRelation;
using testing::MedicalSchema;

AuditReport MustAudit(const Relation& input, const Relation& output, size_t k,
                      const ConstraintSet& constraints,
                      const AuditOptions& options = {}) {
  auto report = AuditAnonymization(input, output, k, constraints, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

/// A DIVA run's real output passes every check (the end-to-end positive
/// case for all four invariants at once).
TEST(AuditorTest, DivaOutputPassesFullAudit) {
  Relation input = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  auto result = RunDiva(input, constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  AuditOptions audit_options;
  audit_options.waived_constraints = result->report.unsatisfied;
  AuditReport report =
      MustAudit(input, result->relation, 2, constraints, audit_options);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.stats.rows, input.NumRows());
  EXPECT_GE(report.stats.min_group_size, 2u);
  EXPECT_EQ(report.stats.removed_stars, 0u);
  EXPECT_EQ(report.stats.edited_cells, 0u);
}

/// Group-size invariant, isolated positive + negative: an identity
/// "anonymization" is perfectly contained and star-consistent, but its
/// singleton QI-groups violate k = 2.
TEST(AuditorTest, FlagsKViolation) {
  Relation input = MedicalRelation();
  Relation output = input;  // singleton QI-groups, nothing suppressed

  AuditReport report = MustAudit(input, output, 2, /*constraints=*/{});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Flagged(AuditCheck::kGroupSize));
  EXPECT_FALSE(report.Flagged(AuditCheck::kContainment));
  EXPECT_FALSE(report.Flagged(AuditCheck::kStarAccounting));
  EXPECT_EQ(report.stats.min_group_size, 1u);

  // The same pair is fine for k = 1.
  EXPECT_TRUE(MustAudit(input, output, 1, {}).ok());
}

/// Constraint-bounds invariant: fully suppressing the QI keeps the
/// relation k-anonymous and contained, but the sensitive column still
/// carries 2 Hypertension + 1 more occurrences — breaching lambda_r = 2.
TEST(AuditorTest, FlagsUpperBoundBreach) {
  Relation input = MedicalRelation();
  Relation output = input;
  Clustering everything(1);
  for (RowId row = 0; row < input.NumRows(); ++row) {
    everything[0].push_back(row);
  }
  SuppressClustersInPlace(&output, everything);
  ASSERT_TRUE(IsKAnonymous(output, 2));

  auto sigma = ParseConstraintSet(*MedicalSchema(), "DIAG[Hypertension] in [0,2]");
  ASSERT_TRUE(sigma.ok());
  ASSERT_EQ(testing::NaiveTargets(input, (*sigma)[0]).size(), 3u);

  AuditReport report = MustAudit(input, output, 2, *sigma);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Flagged(AuditCheck::kConstraintBounds));
  EXPECT_FALSE(report.Flagged(AuditCheck::kGroupSize));
  EXPECT_FALSE(report.Flagged(AuditCheck::kContainment));
  ASSERT_EQ(report.stats.constraint_counts.size(), 1u);
  EXPECT_EQ(report.stats.constraint_counts[0], 3u);

  // Waiving the constraint (best-effort mode) silences the flag but the
  // measured count is still reported.
  AuditOptions waive;
  waive.waived_constraints = {0};
  AuditReport waived = MustAudit(input, output, 2, *sigma, waive);
  EXPECT_TRUE(waived.ok()) << waived.ToString();
  EXPECT_EQ(waived.stats.constraint_counts[0], 3u);

  // A lower-bound breach is flagged the same way: suppression erased all
  // occurrences required by lambda_l >= 1.
  auto lower = ParseConstraintSet(*MedicalSchema(), "ETH[Asian] in [2,5]");
  ASSERT_TRUE(lower.ok());
  AuditReport lower_report = MustAudit(input, output, 2, *lower);
  EXPECT_FALSE(lower_report.ok());
  EXPECT_TRUE(lower_report.Flagged(AuditCheck::kConstraintBounds));
  EXPECT_EQ(lower_report.stats.constraint_counts[0], 0u);
}

/// Containment invariant: editing a cell to a *different value* is not a
/// legal anonymization step, even though every privacy property holds.
TEST(AuditorTest, FlagsNonSuppressionEdit) {
  Relation input = MedicalRelation();
  Relation output = input;
  Clustering everything(1);
  for (RowId row = 0; row < input.NumRows(); ++row) {
    everything[0].push_back(row);
  }
  SuppressClustersInPlace(&output, everything);

  // Swap one sensitive value (sensitive cells are outside the QI-groups,
  // so group sizes stay valid and the violation is isolated).
  size_t diag = *MedicalSchema()->IndexOf("DIAG");
  output.Set(0, diag, output.Encode(diag, "Gout"));

  AuditReport report = MustAudit(input, output, 2, {});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Flagged(AuditCheck::kContainment));
  EXPECT_FALSE(report.Flagged(AuditCheck::kGroupSize));
  EXPECT_FALSE(report.Flagged(AuditCheck::kStarAccounting));
  EXPECT_EQ(report.stats.edited_cells, 1u);
}

/// verify_cli reads R and R* from separate CSV files, so their
/// dictionaries assign different codes to equal strings. The audit must
/// compare values, not raw codes, in both directions: no false
/// containment violations on a clean pair, and a genuine edit still
/// caught.
TEST(AuditorTest, AuditsAcrossIndependentDictionaries) {
  Relation input = MedicalRelation();
  Relation output = input;
  Clustering everything(1);
  for (RowId row = 0; row < input.NumRows(); ++row) {
    everything[0].push_back(row);
  }
  SuppressClustersInPlace(&output, everything);

  // Round-trip each relation through strings into fresh dictionaries,
  // pre-skewed with a decoy value so equal strings get unequal codes.
  auto reencode = [](const Relation& source) {
    Relation copy(source.schema_ptr());
    std::vector<std::string> fields(source.NumAttributes());
    for (size_t col = 0; col < source.NumAttributes(); ++col) {
      copy.Encode(col, "decoy-" + std::to_string(col));
    }
    for (RowId row = 0; row < source.NumRows(); ++row) {
      for (size_t col = 0; col < source.NumAttributes(); ++col) {
        fields[col] = source.ValueString(row, col);
      }
      EXPECT_TRUE(copy.AppendRowStrings(fields).ok());
    }
    return copy;
  };
  Relation fresh_input = reencode(input);
  Relation fresh_output = reencode(output);
  size_t diag = *MedicalSchema()->IndexOf("DIAG");
  ASSERT_NE(fresh_input.At(0, diag), input.At(0, diag));  // codes do differ

  AuditReport report = MustAudit(fresh_input, fresh_output, 2, {});
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.stats.edited_cells, 0u);
  EXPECT_EQ(report.stats.removed_stars, 0u);

  fresh_output.Set(0, diag, fresh_output.Encode(diag, "Gout"));
  AuditReport corrupted = MustAudit(fresh_input, fresh_output, 2, {});
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.Flagged(AuditCheck::kContainment));
  EXPECT_EQ(corrupted.stats.edited_cells, 1u);
}

/// Star-accounting invariant, both directions: un-suppressing an input ★
/// and claiming the wrong number of added ★s.
TEST(AuditorTest, FlagsStarAccountingErrors) {
  auto schema = MedicalSchema();
  auto input = RelationFromRows(
      schema, {{"Female", "*", "80", "AB", "Calgary", "Flu"},
               {"Female", "*", "80", "AB", "Calgary", "Flu"}});
  ASSERT_TRUE(input.ok());

  // Un-suppression: the published relation "recovers" the hidden ETH.
  Relation output = *input;
  size_t eth = *schema->IndexOf("ETH");
  output.Set(0, eth, output.Encode(eth, "Asian"));
  output.Set(1, eth, output.Encode(eth, "Asian"));
  AuditReport report = MustAudit(*input, output, 2, {});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Flagged(AuditCheck::kStarAccounting));
  EXPECT_EQ(report.stats.removed_stars, 2u);

  // Wrong claimed count: output adds 2 stars (AGE column) but the
  // producer claims 3.
  Relation counted = *input;
  size_t age = *schema->IndexOf("AGE");
  counted.Set(0, age, kSuppressed);
  counted.Set(1, age, kSuppressed);
  AuditOptions audit_options;
  audit_options.expected_added_stars = 3;
  AuditReport miscounted = MustAudit(*input, counted, 2, {}, audit_options);
  EXPECT_FALSE(miscounted.ok());
  EXPECT_TRUE(miscounted.Flagged(AuditCheck::kStarAccounting));
  EXPECT_EQ(miscounted.stats.added_stars, 2u);

  // The correct claim passes.
  audit_options.expected_added_stars = 2;
  EXPECT_TRUE(MustAudit(*input, counted, 2, {}, audit_options).ok());
}

/// Generalized cells are legal exactly when a taxonomy justifies them as
/// proper ancestors of the input values.
TEST(AuditorTest, GeneralizationRequiresTaxonomy) {
  auto schema = MedicalSchema();
  auto input = RelationFromRows(
      schema, {{"Female", "Asian", "32", "AB", "Calgary", "Flu"},
               {"Female", "Asian", "38", "AB", "Calgary", "Flu"}});
  ASSERT_TRUE(input.ok());

  size_t age = *schema->IndexOf("AGE");
  Relation output = *input;
  ValueCode decade = output.Encode(age, "[30-39]");
  output.Set(0, age, decade);
  output.Set(1, age, decade);

  // Without a taxonomy the recode is an illegal edit.
  AuditReport no_context = MustAudit(*input, output, 2, {});
  EXPECT_TRUE(no_context.Flagged(AuditCheck::kContainment));

  // With the interval hierarchy it is a proper generalization.
  auto taxonomy = Taxonomy::Intervals(30, 39, 10);
  ASSERT_TRUE(taxonomy.ok());
  auto context =
      std::make_shared<GeneralizationContext>(schema->NumAttributes());
  context->SetTaxonomy(age, std::move(taxonomy).value());
  AuditOptions audit_options;
  audit_options.generalization = context;
  AuditReport with_context = MustAudit(*input, output, 2, {}, audit_options);
  EXPECT_TRUE(with_context.ok()) << with_context.ToString();
  EXPECT_EQ(with_context.stats.generalized_cells, 2u);
}

/// Unauditable pairs are Status errors, not failed audits.
TEST(AuditorTest, RejectsUnauditablePairs) {
  Relation input = MedicalRelation();

  EXPECT_FALSE(AuditAnonymization(input, input, 0, {}).ok());

  Relation fewer_rows = input.SelectRows(std::vector<RowId>{0, 1, 2});
  EXPECT_EQ(AuditAnonymization(input, fewer_rows, 2, {}).status().code(),
            StatusCode::kInvalidArgument);
}

/// RunDiva's self-audit flag: a clean run reports audited = true; the
/// flag defaults to off.
TEST(AuditorTest, DivaSelfAuditFlag) {
  Relation input = MedicalRelation();
  ConstraintSet constraints = MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  options.audit = true;
  auto result = RunDiva(input, constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->report.audited);

  options.audit = false;
  auto unaudited = RunDiva(input, constraints, options);
  ASSERT_TRUE(unaudited.ok());
  EXPECT_FALSE(unaudited->report.audited);
}


// ---------------------------------------------------------------------
// Differential referee: the auditor's one-pass group-size and
// constraint-bounds checks against the straightforward versions they
// replaced (an ordered std::map over QI projections; one row scan per
// constraint), kept here verbatim in sequential form.

/// The auditor's per-check detail cap, reimplemented.
class ReferenceRecorder {
 public:
  ReferenceRecorder(AuditReport* report, size_t cap)
      : report_(report), cap_(cap) {}
  void Record(AuditCheck check, std::string detail) {
    size_t& count = counts_[static_cast<size_t>(check)];
    ++count;
    if (count <= cap_) {
      report_->violations.push_back({check, std::move(detail)});
    } else if (count == cap_ + 1) {
      report_->violations.push_back(
          {check, "further violations of this check omitted"});
    }
  }

 private:
  AuditReport* report_;
  size_t cap_;
  size_t counts_[4] = {0, 0, 0, 0};
};

void ReferenceGroupSizes(const Relation& relation, size_t k,
                         ReferenceRecorder* recorder, AuditStats* stats) {
  const std::vector<size_t>& qi = relation.schema().qi_indices();
  std::map<std::vector<ValueCode>, size_t> group_sizes;
  std::vector<ValueCode> key(qi.size());
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (size_t i = 0; i < qi.size(); ++i) key[i] = relation.At(row, qi[i]);
    ++group_sizes[key];
  }
  stats->num_groups = group_sizes.size();
  stats->min_group_size = 0;
  bool first = true;
  for (const auto& [pattern, size] : group_sizes) {
    if (first || size < stats->min_group_size) stats->min_group_size = size;
    first = false;
    if (size < k) {
      std::ostringstream detail;
      detail << "QI-group of size " << size << " < k = " << k
             << " (pattern";
      for (size_t i = 0; i < qi.size(); ++i) {
        detail << ' ' << relation.schema().attribute(qi[i]).name << '='
               << (pattern[i] == kSuppressed
                       ? std::string("*")
                       : relation.dictionary(qi[i]).ValueOf(pattern[i]));
      }
      detail << ')';
      recorder->Record(AuditCheck::kGroupSize, detail.str());
    }
  }
}

void ReferenceConstraintBounds(const Relation& relation,
                               const ConstraintSet& constraints,
                               const AuditOptions& options,
                               ReferenceRecorder* recorder,
                               AuditStats* stats) {
  stats->constraint_counts.assign(constraints.size(), 0);
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const DiversityConstraint& constraint = constraints[ci];
    const std::vector<size_t>& attrs = constraint.attribute_indices();
    std::vector<ValueCode> targets(attrs.size());
    bool resolvable = true;
    for (size_t i = 0; i < attrs.size() && resolvable; ++i) {
      auto code = relation.FindCode(attrs[i], constraint.values()[i]);
      if (code.has_value()) {
        targets[i] = *code;
      } else {
        resolvable = false;
      }
    }
    size_t count = 0;
    for (RowId row = 0; resolvable && row < relation.NumRows(); ++row) {
      bool match = true;
      for (size_t i = 0; i < attrs.size() && match; ++i) {
        match = relation.At(row, attrs[i]) == targets[i];
      }
      count += match ? 1 : 0;
    }
    stats->constraint_counts[ci] = count;
    const bool in_bounds =
        count >= constraint.lower() && count <= constraint.upper();
    const bool waived =
        std::binary_search(options.waived_constraints.begin(),
                           options.waived_constraints.end(), ci);
    if (!in_bounds && !waived) {
      std::ostringstream detail;
      detail << "constraint #" << ci << " " << constraint.ToString()
             << " has " << count << " occurrences";
      recorder->Record(AuditCheck::kConstraintBounds, detail.str());
    }
  }
}

/// The report the old checks would have produced: their violations and
/// stats, plus the unchanged cell/star check's part of `actual`.
AuditReport ReferenceReport(const AuditReport& actual, const Relation& output,
                            size_t k, const ConstraintSet& constraints,
                            const AuditOptions& options) {
  AuditReport reference;
  reference.stats = actual.stats;
  ReferenceRecorder recorder(&reference, options.max_details_per_check);
  ReferenceGroupSizes(output, k, &recorder, &reference.stats);
  ReferenceConstraintBounds(output, constraints, options, &recorder,
                            &reference.stats);
  for (const AuditViolation& violation : actual.violations) {
    if (violation.check == AuditCheck::kContainment ||
        violation.check == AuditCheck::kStarAccounting) {
      reference.violations.push_back(violation);
    }
  }
  return reference;
}

void ExpectSameReport(const AuditReport& actual,
                      const AuditReport& reference) {
  ASSERT_EQ(actual.violations.size(), reference.violations.size())
      << actual.ToString() << "\n--- reference ---\n" << reference.ToString();
  for (size_t i = 0; i < actual.violations.size(); ++i) {
    EXPECT_EQ(actual.violations[i].check, reference.violations[i].check)
        << "violation " << i;
    EXPECT_EQ(actual.violations[i].detail, reference.violations[i].detail)
        << "violation " << i;
  }
  EXPECT_EQ(actual.stats.rows, reference.stats.rows);
  EXPECT_EQ(actual.stats.num_groups, reference.stats.num_groups);
  EXPECT_EQ(actual.stats.min_group_size, reference.stats.min_group_size);
  EXPECT_EQ(actual.stats.added_stars, reference.stats.added_stars);
  EXPECT_EQ(actual.stats.removed_stars, reference.stats.removed_stars);
  EXPECT_EQ(actual.stats.generalized_cells,
            reference.stats.generalized_cells);
  EXPECT_EQ(actual.stats.edited_cells, reference.stats.edited_cells);
  EXPECT_EQ(actual.stats.constraint_counts,
            reference.stats.constraint_counts);
  EXPECT_EQ(actual.ToString(), reference.ToString());
}

/// Random (input, output) pairs: small QI domains so groups repeat and
/// many fall under k, random extra stars and the odd edited cell,
/// single- and multi-attribute constraints (some on absent values), a
/// random waiver list and a detail cap often smaller than the number of
/// undersized groups.
TEST(AuditorDifferentialTest, MatchesNaiveChecksOnRandomOutputs) {
  auto schema = Schema::Make({
      {"A", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"B", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"C", AttributeRole::kQuasiIdentifier, AttributeKind::kNumeric},
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  ASSERT_TRUE(schema.ok());
  const std::vector<std::string> names = {"A", "B", "C", "S"};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const size_t rows = static_cast<size_t>(rng.NextBounded(400));
    std::vector<size_t> domain(names.size());
    for (size_t& d : domain) d = 1 + static_cast<size_t>(rng.NextBounded(6));
    Relation input(*schema);
    for (size_t i = 0; i < rows; ++i) {
      std::vector<std::string> fields;
      for (size_t col = 0; col < names.size(); ++col) {
        fields.push_back(rng.NextBounded(20) == 0
                             ? std::string("*")
                             : std::to_string(rng.NextBounded(domain[col])));
      }
      ASSERT_TRUE(input.AppendRowStrings(fields).ok());
    }
    Relation output = input;
    for (RowId row = 0; row < output.NumRows(); ++row) {
      for (size_t col = 0; col < names.size(); ++col) {
        const uint64_t roll = rng.NextBounded(100);
        if (roll < 15) {
          output.Set(row, col, kSuppressed);
        } else if (roll == 15 && output.dictionary(col).size() > 1) {
          output.Set(row, col,
                     static_cast<ValueCode>(
                         rng.NextBounded(output.dictionary(col).size())));
        }
      }
    }
    std::string sigma;
    const size_t count = static_cast<size_t>(rng.NextBounded(25));
    for (size_t c = 0; c < count; ++c) {
      const size_t arity = 1 + static_cast<size_t>(rng.NextBounded(3));
      std::vector<size_t> cols = {0, 1, 2, 3};
      rng.Shuffle(&cols);
      std::string attrs;
      std::string values;
      for (size_t i = 0; i < arity; ++i) {
        attrs += (i > 0 ? "," : "") + names[cols[i]];
        values += (i > 0 ? "," : "") +
                  std::to_string(rng.NextBounded(domain[cols[i]] + 1));
      }
      const size_t lower = static_cast<size_t>(rng.NextBounded(30));
      sigma += attrs + "[" + values + "] in [" + std::to_string(lower) + "," +
               std::to_string(lower + rng.NextBounded(60)) + "]\n";
    }
    auto constraints = ParseConstraintSet(*schema.value(), sigma);
    ASSERT_TRUE(constraints.ok()) << constraints.status().ToString();
    AuditOptions options;
    for (size_t c = 0; c < constraints->size(); ++c) {
      if (rng.NextBounded(4) == 0) options.waived_constraints.push_back(c);
    }
    const size_t caps[] = {0, 1, 3, 8, 1000};
    options.max_details_per_check = caps[rng.NextBounded(5)];
    const size_t k = 1 + static_cast<size_t>(rng.NextBounded(6));

    std::optional<AuditReport> first;
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE("threads = " + std::to_string(threads));
      SetParallelThreads(threads);
      AuditReport actual = MustAudit(input, output, k, *constraints, options);
      ExpectSameReport(actual,
                       ReferenceReport(actual, output, k, *constraints,
                                       options));
      if (!first.has_value()) first = actual;
      ExpectSameReport(actual, *first);
    }
  }
  SetParallelThreads(1);
}

}  // namespace
}  // namespace diva
