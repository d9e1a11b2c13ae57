// Figures 4a and 4b — DIVA runtime and accuracy vs |Sigma| on the Census
// profile, from one sweep. Series: MinChoice, MaxFanOut, Basic.
// Paper shape: Basic's runtime grows super-linearly (exponential
// backtracking, here bounded by the step budget) while MinChoice and
// MaxFanOut scale roughly linearly; accuracy declines roughly linearly
// as constraints are added.

#include "bench/bench_common.h"
#include "bench/params.h"
#include "constraint/generator.h"

using namespace diva;         // NOLINT
using namespace diva::bench;  // NOLINT

int main() {
  PrintPreamble("Figures 4a/4b",
                "runtime (s) and accuracy vs |Sigma| — Census profile");
  size_t rows = static_cast<size_t>(kDefaultPaperSize * Scale());
  constexpr size_t kK = kDefaultK;

  ProfileOptions profile_options;
  profile_options.num_rows = rows;
  profile_options.seed = 5;
  auto census = GenerateProfile(DatasetProfile::kCensus, profile_options);
  DIVA_CHECK(census.ok());
  std::printf("|R| = %zu (paper: 180k x scale), k = %zu\n", rows, kK);

  std::vector<SweepRow> sweep;
  for (size_t num_constraints : kSigmaSweep) {
    ConstraintGenOptions gen;
    gen.count = num_constraints;
    gen.min_support = kK;       // includes barely-clusterable targets
    gen.slack = 0.15;           // tight ranges amplify interactions
    gen.target_conflict = kDefaultConflict;
    gen.seed = 5;
    auto constraints = GenerateConstraints(*census, gen);
    DIVA_CHECK_MSG(constraints.ok(), constraints.status().ToString());

    SweepRow row{std::to_string(num_constraints), {}};
    for (SelectionStrategy strategy :
         {SelectionStrategy::kMinChoice, SelectionStrategy::kMaxFanOut,
          SelectionStrategy::kBasic}) {
      row.results.push_back(Averaged(Reps(), [&](uint64_t seed) {
        return RunDivaOnce(*census, *constraints, strategy, kK, seed);
      }));
    }
    sweep.push_back(std::move(row));
  }
  const std::vector<std::string> series = {"MinChoice", "MaxFanOut", "Basic"};
  PrintSweepTable("Figure 4a — runtime (s)", "|Sigma|", series, sweep,
                  &RunResult::seconds);
  PrintSweepTable("Figure 4b — accuracy", "|Sigma|", series, sweep,
                  &RunResult::accuracy);
  std::printf(
      "\npaper shape (4a): Basic's runtime explodes with |Sigma| (its larger\n"
      "shuffled candidate pool causes exponential backtracking, capped by\n"
      "the step budget); the selective strategies stay near-linear.\n"
      "paper shape (4b): accuracy declines as |Sigma| grows — more target\n"
      "tuples must be preserved in dedicated clusters, and interactions\n"
      "between constraints force extra suppression.\n");
  return 0;
}
