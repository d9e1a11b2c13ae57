#include <gtest/gtest.h>

#include "anon/anonymizer.h"
#include "anon/suppress.h"
#include "constraint/generator.h"
#include "core/diva.h"
#include "datagen/profiles.h"
#include "hierarchy/generalize.h"
#include "hierarchy/taxonomy.h"
#include "relation/qi_groups.h"
#include "tests/test_util.h"

namespace diva {
namespace {

using testing::MedicalRelation;
using testing::MedicalSchema;

/// Geography taxonomy over the example's cities.
Taxonomy CityTaxonomy() {
  auto taxonomy = Taxonomy::FromText(
      "Calgary,West\n"
      "Vancouver,West\n"
      "Winnipeg,Central\n"
      "West,Canada\n"
      "Central,Canada\n");
  DIVA_CHECK_MSG(taxonomy.ok(), taxonomy.status().ToString());
  return std::move(taxonomy).value();
}

// ------------------------------------------------------------- Taxonomy

TEST(TaxonomyTest, BuildAndQuery) {
  Taxonomy t = CityTaxonomy();
  EXPECT_EQ(t.NumNodes(), 6u);
  EXPECT_EQ(t.NumLeaves(), 3u);
  auto calgary = t.Find("Calgary");
  auto vancouver = t.Find("Vancouver");
  auto winnipeg = t.Find("Winnipeg");
  auto west = t.Find("West");
  auto canada = t.Find("Canada");
  ASSERT_TRUE(calgary && vancouver && winnipeg && west && canada);
  EXPECT_TRUE(t.IsLeaf(*calgary));
  EXPECT_FALSE(t.IsLeaf(*west));
  EXPECT_EQ(t.root(), *canada);
  EXPECT_EQ(t.Depth(*canada), 0u);
  EXPECT_EQ(t.Depth(*west), 1u);
  EXPECT_EQ(t.Depth(*calgary), 2u);
  EXPECT_EQ(t.LeafCount(*west), 2u);
  EXPECT_EQ(t.LeafCount(*canada), 3u);
  EXPECT_FALSE(t.Find("Atlantis").has_value());
}

TEST(TaxonomyTest, Lca) {
  Taxonomy t = CityTaxonomy();
  auto id = [&](const char* label) { return *t.Find(label); };
  EXPECT_EQ(t.Lca(id("Calgary"), id("Vancouver")), id("West"));
  EXPECT_EQ(t.Lca(id("Calgary"), id("Winnipeg")), id("Canada"));
  EXPECT_EQ(t.Lca(id("Calgary"), id("Calgary")), id("Calgary"));
  EXPECT_EQ(t.Lca(id("West"), id("Vancouver")), id("West"));
}

TEST(TaxonomyTest, RejectsMalformed) {
  // Two roots.
  EXPECT_FALSE(Taxonomy::FromText("a,r1\nb,r2\n").ok());
  // Two parents.
  EXPECT_FALSE(Taxonomy::FromText("a,p\na,q\np,r\nq,r\n").ok());
  // Cycle (no root).
  EXPECT_FALSE(Taxonomy::FromText("a,b\nb,a\n").ok());
  // Self loop.
  EXPECT_FALSE(Taxonomy::FromText("a,a\n").ok());
  // Bad line.
  EXPECT_FALSE(Taxonomy::FromText("justonefield\n").ok());
  // Empty.
  EXPECT_FALSE(Taxonomy::FromText("# only a comment\n").ok());
}

TEST(TaxonomyTest, IntervalHierarchy) {
  auto t = Taxonomy::Intervals(0, 9, 5);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumLeaves(), 10u);
  auto leaf3 = t->Find("3");
  auto low = t->Find("[0-4]");
  auto high = t->Find("[5-9]");
  auto root = t->Find("[0-9]");
  ASSERT_TRUE(leaf3 && low && high && root);
  EXPECT_EQ(t->Parent(*leaf3), *low);
  EXPECT_EQ(t->Lca(*t->Find("3"), *t->Find("7")), *root);
  EXPECT_EQ(t->Lca(*t->Find("1"), *t->Find("4")), *low);
  EXPECT_EQ(t->LeafCount(*high), 5u);
  EXPECT_FALSE(Taxonomy::Intervals(5, 4, 2).ok());
  EXPECT_FALSE(Taxonomy::Intervals(0, 9, 1).ok());
}

// --------------------------------------------------------- Generalize

GeneralizationContext MedicalContext() {
  GeneralizationContext context(6);
  context.SetTaxonomy(4, CityTaxonomy());  // CTY
  auto age = Taxonomy::Intervals(0, 99, 10);
  DIVA_CHECK(age.ok());
  context.SetTaxonomy(2, std::move(age).value());  // AGE
  return context;
}

TEST(GeneralizeTest, LcaInsteadOfStar) {
  Relation r = MedicalRelation();
  GeneralizationContext context = MedicalContext();
  // t1 (80, Calgary) and t8 (58, Vancouver): GEN/ETH/PRV have no
  // taxonomy -> ★ where they disagree; CTY -> West; AGE -> root range.
  Clustering clustering = {{0, 7}};
  ASSERT_TRUE(GeneralizeClustersInPlace(&r, clustering, context).ok());
  EXPECT_EQ(r.ValueString(0, 4), "West");
  EXPECT_EQ(r.ValueString(7, 4), "West");
  EXPECT_EQ(r.ValueString(0, 2), "[0-99]");  // 80 vs 58 crosses decades
  EXPECT_TRUE(r.IsSuppressed(0, 1));         // ETH differs, no taxonomy
  EXPECT_EQ(r.ValueString(0, 0), "Female");  // unanimous: untouched
}

TEST(GeneralizeTest, SameDecadeGeneralizesNarrowly) {
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "Asian", "32", "BC", "Vancouver", "x"},
                                {"F", "Asian", "35", "BC", "Vancouver", "y"},
                            });
  ASSERT_TRUE(r.ok());
  GeneralizationContext context = MedicalContext();
  Clustering clustering = {{0, 1}};
  ASSERT_TRUE(GeneralizeClustersInPlace(&(*r), clustering, context).ok());
  EXPECT_EQ(r->ValueString(0, 2), "[30-39]");
  EXPECT_EQ(r->ValueString(1, 2), "[30-39]");
}

TEST(GeneralizeTest, ClustersBecomeQiGroups) {
  Relation r = MedicalRelation();
  GeneralizationContext context = MedicalContext();
  Clustering clustering = {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}};
  ASSERT_TRUE(GeneralizeClustersInPlace(&r, clustering, context).ok());
  EXPECT_TRUE(IsKAnonymous(r, 2));
}

TEST(GeneralizeTest, UnknownValueIsError) {
  auto r = RelationFromRows(MedicalSchema(),
                            {
                                {"F", "Asian", "30", "BC", "Atlantis", "x"},
                                {"F", "Asian", "30", "BC", "Vancouver", "y"},
                            });
  ASSERT_TRUE(r.ok());
  GeneralizationContext context = MedicalContext();
  Clustering clustering = {{0, 1}};
  auto status = GeneralizeClustersInPlace(&(*r), clustering, context);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(GeneralizeTest, NoTaxonomiesEqualsSuppression) {
  Relation generalized = MedicalRelation();
  Relation suppressed = MedicalRelation();
  GeneralizationContext none(6);
  Clustering clustering = {{0, 1, 2}, {5, 6}};
  ASSERT_TRUE(
      GeneralizeClustersInPlace(&generalized, clustering, none).ok());
  SuppressClustersInPlace(&suppressed, clustering);
  for (RowId row = 0; row < generalized.NumRows(); ++row) {
    for (size_t col = 0; col < generalized.NumAttributes(); ++col) {
      EXPECT_EQ(generalized.At(row, col), suppressed.At(row, col));
    }
  }
}

TEST(GeneralizeTest, NcpLossOrdersRefinement) {
  GeneralizationContext context = MedicalContext();
  // Narrow generalization costs less than wide; original costs 0.
  Relation original = MedicalRelation();
  EXPECT_DOUBLE_EQ(NcpLoss(original, context), 0.0);

  // Two West-coast patients in the same age decade: generalization keeps
  // [30-39] and "West", suppression erases both.
  auto make = [] {
    auto r = RelationFromRows(
        MedicalSchema(),
        {
            {"F", "Asian", "32", "AB", "Calgary", "x"},
            {"F", "Asian", "35", "BC", "Vancouver", "y"},
        });
    DIVA_CHECK(r.ok());
    return std::move(r).value();
  };
  Relation narrow = make();
  Relation wide = make();
  Clustering clustering = {{0, 1}};
  ASSERT_TRUE(GeneralizeClustersInPlace(&narrow, clustering, context).ok());
  SuppressClustersInPlace(&wide, clustering);
  double narrow_loss = NcpLoss(narrow, context);
  double wide_loss = NcpLoss(wide, context);
  EXPECT_GT(narrow_loss, 0.0);
  EXPECT_LT(narrow_loss, wide_loss);
}

TEST(GeneralizeTest, WorksOnTopOfAnyAnonymizer) {
  Relation r = MedicalRelation();
  auto mondrian = MakeMondrian({});
  std::vector<RowId> rows(r.NumRows());
  for (RowId i = 0; i < r.NumRows(); ++i) rows[i] = i;
  auto clusters = mondrian->BuildClusters(r, rows, 3);
  ASSERT_TRUE(clusters.ok());
  GeneralizationContext context = MedicalContext();
  ASSERT_TRUE(GeneralizeClustersInPlace(&r, *clusters, context).ok());
  EXPECT_TRUE(IsKAnonymous(r, 3));
  EXPECT_LT(NcpLoss(r, context), 1.0);
}

// --------------------------------------------- DIVA with generalization

TEST(GeneralizeTest, DivaWithGeneralizationContext) {
  Relation r = MedicalRelation();
  auto constraints = testing::MedicalConstraints(*MedicalSchema());
  DivaOptions options;
  options.k = 2;
  options.generalization =
      std::make_shared<GeneralizationContext>(MedicalContext());
  auto result = RunDiva(r, constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(IsKAnonymous(result->relation, 2));
  EXPECT_TRUE(SatisfiesAll(result->relation, constraints));

  // Recoded cells carry taxonomy labels (or stars for attributes
  // without a taxonomy); never a foreign leaf value.
  bool saw_generalized_label = false;
  for (RowId row = 0; row < result->relation.NumRows(); ++row) {
    std::string age = result->relation.ValueString(row, 2);
    if (age.front() == '[') saw_generalized_label = true;
  }
  EXPECT_TRUE(saw_generalized_label);
}

// Counts the rows of `a` and `b` that differ in some cell's value.
size_t DifferingRows(const Relation& a, const Relation& b) {
  size_t differing = 0;
  for (RowId row = 0; row < a.NumRows(); ++row) {
    for (size_t col = 0; col < a.NumAttributes(); ++col) {
      if (a.ValueString(row, col) != b.ValueString(row, col)) {
        ++differing;
        break;
      }
    }
  }
  return differing;
}

// A generalized run interns taxonomy labels into its output, never into
// its input: the input keeps its dictionaries (AGE stays numeric), and a
// later plain run on it publishes what a run on a fresh copy publishes.
TEST(GeneralizeTest, DivaWithGeneralizationLeavesInputDictionariesAlone) {
  ProfileOptions profile_options;
  profile_options.num_rows = 3000;
  profile_options.seed = 7;
  auto input = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  auto fresh = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(input.ok() && fresh.ok());
  ConstraintGenOptions gen;
  gen.count = DefaultConstraintCount(DatasetProfile::kPopSyn);
  gen.min_support = 8;
  auto constraints = GenerateConstraints(*input, gen);
  ASSERT_TRUE(constraints.ok()) << constraints.status().ToString();

  const size_t age = *input->schema().IndexOf("AGE");
  std::vector<size_t> sizes;
  for (size_t col = 0; col < input->NumAttributes(); ++col) {
    sizes.push_back(input->dictionary(col).size());
  }
  ASSERT_TRUE(input->dictionary(age).AllNumeric());

  auto context = std::make_shared<GeneralizationContext>(
      input->NumAttributes());
  auto intervals = Taxonomy::Intervals(0, 99, 10);
  ASSERT_TRUE(intervals.ok());
  context->SetTaxonomy(age, std::move(intervals).value());
  DivaOptions generalized;
  generalized.k = 10;
  generalized.threads = 1;
  generalized.generalization = context;
  auto run = RunDiva(*input, *constraints, generalized);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  for (size_t col = 0; col < input->NumAttributes(); ++col) {
    EXPECT_EQ(input->dictionary(col).size(), sizes[col]) << col;
  }
  EXPECT_TRUE(input->dictionary(age).AllNumeric());

  for (BaselineAlgorithm baseline :
       {BaselineAlgorithm::kKMember, BaselineAlgorithm::kOka,
        BaselineAlgorithm::kMondrian}) {
    SCOPED_TRACE(BaselineAlgorithmToString(baseline));
    DivaOptions plain;
    plain.k = 10;
    plain.threads = 1;
    plain.baseline = baseline;
    auto after = RunDiva(*input, *constraints, plain);
    auto cold = RunDiva(*fresh, *constraints, plain);
    ASSERT_TRUE(after.ok() && cold.ok());
    EXPECT_EQ(DifferingRows(after->relation, cold->relation), 0u);
  }
}

TEST(GeneralizeTest, DivaGeneralizationArityMismatchRejected) {
  Relation r = MedicalRelation();
  DivaOptions options;
  options.k = 2;
  options.generalization = std::make_shared<GeneralizationContext>(3);
  auto result = RunDiva(r, {}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GeneralizeTest, ArityMismatchRejected) {
  Relation r = MedicalRelation();
  GeneralizationContext wrong(3);
  Clustering clustering = {{0, 1}};
  EXPECT_FALSE(GeneralizeClustersInPlace(&r, clustering, wrong).ok());
}

}  // namespace
}  // namespace diva
