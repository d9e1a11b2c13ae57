// Figures 5c and 5d — accuracy and runtime vs |R| on the Census profile,
// from one sweep: DIVA (MinChoice, MaxFanOut) against k-member, OKA,
// Mondrian. Paper shape: accuracy declines slowly with |R| for everyone
// and DIVA stays on top; all runtimes grow with |R|, and DIVA sits above
// the plain baselines.

#include "bench/bench_common.h"
#include "bench/params.h"
#include "constraint/generator.h"

using namespace diva;         // NOLINT
using namespace diva::bench;  // NOLINT

int main() {
  PrintPreamble("Figures 5c/5d",
                "accuracy and runtime (s) vs |R| — Census profile");
  constexpr size_t kK = kDefaultK;
  constexpr size_t kNumConstraints = kDefaultSigma;

  std::vector<SweepRow> sweep;
  for (size_t paper_rows : kPaperSizes) {
    size_t rows = static_cast<size_t>(paper_rows * Scale());
    ProfileOptions profile_options;
    profile_options.num_rows = rows;
    profile_options.seed = 25;
    auto census = GenerateProfile(DatasetProfile::kCensus, profile_options);
    DIVA_CHECK(census.ok());

    ConstraintGenOptions gen;
    gen.count = kNumConstraints;
    gen.min_support = 2 * kK;
    gen.target_conflict = kDefaultConflict;
    gen.seed = 25;
    auto constraints = GenerateConstraints(*census, gen);
    DIVA_CHECK_MSG(constraints.ok(), constraints.status().ToString());

    SweepRow row{std::to_string(paper_rows) + "x" + std::to_string(rows), {}};
    for (SelectionStrategy strategy :
         {SelectionStrategy::kMinChoice, SelectionStrategy::kMaxFanOut}) {
      row.results.push_back(Averaged(Reps(), [&](uint64_t seed) {
        return RunDivaOnce(*census, *constraints, strategy, kK, seed);
      }));
    }
    for (BaselineAlgorithm baseline :
         {BaselineAlgorithm::kKMember, BaselineAlgorithm::kOka,
          BaselineAlgorithm::kMondrian}) {
      row.results.push_back(Averaged(Reps(), [&](uint64_t seed) {
        return RunBaselineOnce(*census, *constraints, baseline, kK, seed);
      }));
    }
    sweep.push_back(std::move(row));
  }
  const std::vector<std::string> series = {"MinChoice", "MaxFanOut",
                                           "k-member", "OKA", "Mondrian"};
  PrintSweepTable("Figure 5c — accuracy", "|R|", series, sweep,
                  &RunResult::accuracy);
  PrintSweepTable("Figure 5d — runtime (s)", "|R|", series, sweep,
                  &RunResult::seconds);
  std::printf(
      "\npaper shape (5c): accuracy declines slowly as |R| grows (new\n"
      "attribute values misalign with existing clusters, forcing\n"
      "suppression); DIVA beats the baselines while also enforcing Sigma.\n"
      "paper shape (5d): every algorithm's runtime grows with |R|; DIVA's\n"
      "extra cost over its k-member substrate is the diverse clustering\n"
      "search plus integration.\n"
      "(rows labelled paper-size x scaled-size)\n");
  return 0;
}
