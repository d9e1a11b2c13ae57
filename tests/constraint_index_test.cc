// Referee tests for the one-pass constraint index: targets, occurrence
// counts and conflict-graph adjacency must equal the brute-force oracle
// (NaiveTargets plus naive pairwise intersection) on the bench shapes,
// on random relations and on the edge cases, at thread widths 1, 4, 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "constraint/constraint_index.h"
#include "constraint/diversity_constraint.h"
#include "constraint/generator.h"
#include "constraint/parser.h"
#include "core/constraint_graph.h"
#include "datagen/profiles.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::NaiveTargets;

/// True when two ascending row lists share a row (stops at the first).
bool HaveCommonRow(const std::vector<RowId>& a, const std::vector<RowId>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Checks every index answer against the oracle at widths 1, 4 and 8.
void ExpectIndexMatchesOracle(const Relation& relation,
                              const ConstraintSet& constraints) {
  const size_t n = constraints.size();
  std::vector<std::vector<RowId>> targets(n);
  std::vector<size_t> counts(n);
  std::vector<size_t> violated;
  for (size_t c = 0; c < n; ++c) {
    targets[c] = NaiveTargets(relation, constraints[c]);
    counts[c] = targets[c].size();
    if (counts[c] < constraints[c].lower() ||
        counts[c] > constraints[c].upper()) {
      violated.push_back(c);
    }
  }
  std::vector<std::vector<size_t>> adjacency(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j && HaveCommonRow(targets[i], targets[j])) {
        adjacency[i].push_back(j);
      }
    }
  }

  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    SetParallelThreads(threads);
    ConstraintGraph graph = BuildConstraintGraph(relation, constraints);
    EXPECT_EQ(graph.targets, targets);
    EXPECT_EQ(graph.adjacency, adjacency);
    EXPECT_EQ(CountAllOccurrences(relation, constraints), counts);
    EXPECT_EQ(ViolatedConstraints(relation, constraints), violated);
    EXPECT_EQ(SatisfiesAll(relation, constraints), violated.empty());

    ConstraintIndex index(relation, constraints);
    EXPECT_EQ(index.CountAll(), counts);
    std::vector<std::vector<size_t>> index_adjacency;
    EXPECT_EQ(index.Targets(&index_adjacency), targets);
    EXPECT_EQ(index_adjacency, adjacency);
    EXPECT_EQ(index.Targets(), targets);
    for (size_t c = 0; c < n; ++c) {
      for (RowId row = 0; row < relation.NumRows(); ++row) {
        ASSERT_EQ(index.Matches(c, row),
                  std::binary_search(targets[c].begin(), targets[c].end(),
                                     row))
            << "row " << row << " constraint " << c;
      }
    }
  }
  SetParallelThreads(1);
}

ConstraintSet Parse(const Schema& schema, const std::string& text) {
  auto constraints = ParseConstraintSet(schema, text);
  DIVA_CHECK_MSG(constraints.ok(), constraints.status().ToString());
  return std::move(constraints).value();
}

/// A generated profile plus a generated Sigma, as the bench shapes build
/// them.
void ExpectProfileShape(DatasetProfile profile, size_t rows, size_t count,
                        double slack, std::optional<double> conflict,
                        size_t min_support) {
  ProfileOptions profile_options;
  if (rows > 0) profile_options.num_rows = rows;
  profile_options.seed = 1000;
  auto relation = GenerateProfile(profile, profile_options);
  ASSERT_TRUE(relation.ok());
  ConstraintGenOptions gen;
  gen.count = count;
  gen.slack = slack;
  gen.min_support = min_support;
  gen.target_conflict = conflict;
  gen.seed = 1000;
  auto constraints = GenerateConstraints(*relation, gen);
  ASSERT_TRUE(constraints.ok());
  ExpectIndexMatchesOracle(*relation, *constraints);
}

TEST(ConstraintIndexTest, Fig4Shape) {
  ExpectProfileShape(DatasetProfile::kPopSyn, 4000, 12, 0.3, 0.4, 2);
}

TEST(ConstraintIndexTest, Fig5Shape) {
  ExpectProfileShape(DatasetProfile::kCredit, 0, 24, 0.05, 0.9, 15);
}

TEST(ConstraintIndexTest, SmokeShape) {
  ProfileOptions profile_options;
  profile_options.num_rows = 4000;
  profile_options.seed = 1000;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(relation.ok());
  ConstraintGenOptions gen;
  gen.count = 12;
  gen.seed = 1000;
  auto constraints = GenerateConstraints(*relation, gen);
  ASSERT_TRUE(constraints.ok());
  ExpectIndexMatchesOracle(*relation, *constraints);
}

TEST(ConstraintIndexTest, TinyScaleShape) {
  // bench_scale's shape at 64 regions x 50 rows: REGION r and GROUP
  // 2r + parity, one REGION and two GROUP constraints per region, so 64
  // three-node components.
  constexpr size_t kRegions = 64;
  auto schema = Schema::Make({
      {"REGION", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"GROUP", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"JOB", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
  });
  ASSERT_TRUE(schema.ok());
  Relation relation(*schema);
  Rng rng(7);
  for (size_t i = 0; i < kRegions * 50; ++i) {
    const size_t region = i % kRegions;
    const size_t group = 2 * region + (i / kRegions) % 2;
    auto row = relation.AppendRowStrings(
        {"r" + std::to_string(region), "g" + std::to_string(group),
         "j" + std::to_string(rng.NextBounded(8))});
    ASSERT_TRUE(row.ok());
  }
  std::string sigma;
  for (size_t r = 0; r < kRegions; ++r) {
    sigma += "REGION[r" + std::to_string(r) + "] in [10,50]\n";
    sigma += "GROUP[g" + std::to_string(2 * r) + "] in [5,25]\n";
    sigma += "GROUP[g" + std::to_string(2 * r + 1) + "] in [5,25]\n";
  }
  ConstraintSet constraints = Parse(relation.schema(), sigma);
  ExpectIndexMatchesOracle(relation, constraints);
  ConstraintGraph graph = BuildConstraintGraph(relation, constraints);
  size_t edges = 0;
  for (const auto& neighbors : graph.adjacency) edges += neighbors.size();
  EXPECT_EQ(edges / 2, 2 * kRegions);
}

/// Random relations over small domains with suppressed cells, and random
/// single- and multi-attribute constraints, some of whose target values
/// are absent from the dictionaries.
TEST(ConstraintIndexTest, RandomRelationsWithMultiAttributeConstraints) {
  auto schema = Schema::Make({
      {"A", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"B", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"C", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"S", AttributeRole::kSensitive, AttributeKind::kCategorical},
  });
  ASSERT_TRUE(schema.ok());
  const std::vector<std::string> names = {"A", "B", "C", "S"};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const size_t rows = static_cast<size_t>(rng.NextBounded(300));
    std::vector<size_t> domain(names.size());
    for (size_t& d : domain) d = 1 + static_cast<size_t>(rng.NextBounded(5));
    Relation relation(*schema);
    for (size_t i = 0; i < rows; ++i) {
      std::vector<std::string> fields;
      for (size_t col = 0; col < names.size(); ++col) {
        fields.push_back(
            rng.NextBounded(10) == 0
                ? std::string("*")
                : "v" + std::to_string(rng.NextBounded(domain[col])));
      }
      ASSERT_TRUE(relation.AppendRowStrings(fields).ok());
    }
    std::string sigma;
    const size_t count = static_cast<size_t>(rng.NextBounded(30));
    for (size_t c = 0; c < count; ++c) {
      const size_t arity = 1 + static_cast<size_t>(rng.NextBounded(3));
      std::vector<size_t> cols = {0, 1, 2, 3};
      rng.Shuffle(&cols);
      std::string attrs;
      std::string values;
      for (size_t i = 0; i < arity; ++i) {
        if (i > 0) {
          attrs += ",";
          values += ",";
        }
        attrs += names[cols[i]];
        // One value in eight is absent from every dictionary.
        values += "v" + std::to_string(rng.NextBounded(domain[cols[i]] + 1));
      }
      const size_t lower = static_cast<size_t>(rng.NextBounded(20));
      sigma += attrs + "[" + values + "] in [" + std::to_string(lower) + "," +
               std::to_string(lower + rng.NextBounded(40)) + "]\n";
    }
    ExpectIndexMatchesOracle(relation, Parse(relation.schema(), sigma));
  }
}

TEST(ConstraintIndexTest, AbsentValuesStarTargetAndSuppressedCells) {
  auto schema = testing::MedicalSchema();
  auto relation = RelationFromRows(
      schema, {
                  {"Female", "*", "30", "BC", "V", "Flu"},
                  {"Female", "Asian", "30", "BC", "V", "Flu"},
                  {"*", "Asian", "41", "*", "V", "*"},
                  {"Male", "Asian", "30", "BC", "W", "Cold"},
              });
  ASSERT_TRUE(relation.ok());
  ConstraintSet constraints = Parse(*schema,
                                    "ETH[Asian] in [0,5]\n"
                                    "ETH[Martian] in [0,5]\n"
                                    "ETH[*] in [0,5]\n"
                                    "GEN,ETH[Female,Asian] in [1,1]\n"
                                    "CTY,ETH[V,Asian] in [0,9]\n"
                                    "DIAG[Flu] in [3,4]\n"
                                    "GEN,CTY[*,V] in [0,1]\n");
  ExpectIndexMatchesOracle(*relation, constraints);
  EXPECT_EQ(ConstraintIndex(*relation, constraints).CountAll(),
            (std::vector<size_t>{3, 0, 0, 1, 2, 2, 0}));
}

TEST(ConstraintIndexTest, IdenticalTargetsOfTwoHundredConstraints) {
  // Every row hits all 200 constraints: pairs come once per distinct hit
  // list, not once per row.
  auto schema = Schema::Make({
      {"A", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
      {"B", AttributeRole::kQuasiIdentifier, AttributeKind::kCategorical},
  });
  ASSERT_TRUE(schema.ok());
  Relation relation(*schema);
  for (size_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(
        relation.AppendRowStrings({"x", "b" + std::to_string(i % 3)}).ok());
  }
  std::string sigma;
  for (size_t c = 0; c < 200; ++c) sigma += "A[x] in [0,20000]\n";
  ConstraintSet constraints = Parse(relation.schema(), sigma);
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SetParallelThreads(threads);
    ConstraintGraph graph = BuildConstraintGraph(relation, constraints);
    for (size_t c = 0; c < 200; ++c) {
      ASSERT_EQ(graph.targets[c].size(), 20000u);
      ASSERT_EQ(graph.adjacency[c].size(), 199u);
    }
    EXPECT_EQ(CountAllOccurrences(relation, constraints),
              std::vector<size_t>(200, 20000));
  }
  SetParallelThreads(1);
}

TEST(ConstraintIndexTest, ZeroRowsAndZeroConstraints) {
  auto schema = testing::MedicalSchema();
  Relation empty(schema);
  ExpectIndexMatchesOracle(empty, testing::MedicalConstraints(*schema));
  ExpectIndexMatchesOracle(testing::MedicalRelation(), ConstraintSet{});
  ExpectIndexMatchesOracle(empty, ConstraintSet{});
}

TEST(ConstraintIndexTest, PaperTable1Targets) {
  Relation r = testing::MedicalRelation();
  ConstraintSet constraints = testing::MedicalConstraints(r.schema());
  ConstraintGraph graph = BuildConstraintGraph(r, constraints);
  // I_s1 = {t8, t9, t10}, I_s2 = {t5, t6}, I_s3 = {t6, t7, t8, t10}.
  EXPECT_EQ(graph.targets[0], (std::vector<RowId>{7, 8, 9}));
  EXPECT_EQ(graph.targets[1], (std::vector<RowId>{4, 5}));
  EXPECT_EQ(graph.targets[2], (std::vector<RowId>{5, 6, 7, 9}));
  EXPECT_EQ(graph.adjacency,
            (std::vector<std::vector<size_t>>{{2}, {2}, {0, 1}}));
  ExpectIndexMatchesOracle(r, constraints);
}

}  // namespace
}  // namespace diva
