// Figures 5a and 5b — accuracy and runtime vs k on the Credit profile,
// from one sweep: DIVA (MinChoice, MaxFanOut) against the plain
// k-anonymization baselines (k-member, OKA, Mondrian). Paper shape:
// accuracy declines with k for everyone, and DIVA stays above the
// baselines while additionally satisfying Sigma; DIVA costs more time
// than the plain baselines (the price of diversity), and its runtime
// *decreases* as k grows (undersized clusterings are pruned earlier).

#include "bench/bench_common.h"
#include "bench/params.h"
#include "constraint/generator.h"

using namespace diva;         // NOLINT
using namespace diva::bench;  // NOLINT

int main() {
  PrintPreamble("Figures 5a/5b", "accuracy and runtime (s) vs k — Credit profile");

  ProfileOptions profile_options;
  profile_options.seed = 21;
  auto credit = GenerateProfile(DatasetProfile::kCredit, profile_options);
  DIVA_CHECK(credit.ok());

  ConstraintGenOptions gen;
  gen.count = DefaultConstraintCount(DatasetProfile::kCredit);  // 18
  gen.min_support = 25;  // includes minority values that large k cannot protect
  gen.slack = 0.2;       // tight ranges: suppression quickly breaches bounds
  gen.seed = 21;
  auto constraints = GenerateConstraints(*credit, gen);
  DIVA_CHECK_MSG(constraints.ok(), constraints.status().ToString());
  std::printf("|R| = %zu, |Sigma| = %zu\n", credit->NumRows(),
              constraints->size());

  std::vector<SweepRow> sweep;
  for (size_t k : kKSweep) {
    SweepRow row{std::to_string(k), {}};
    for (SelectionStrategy strategy :
         {SelectionStrategy::kMinChoice, SelectionStrategy::kMaxFanOut}) {
      row.results.push_back(Averaged(Reps(), [&](uint64_t seed) {
        return RunDivaOnce(*credit, *constraints, strategy, k, seed);
      }));
    }
    for (BaselineAlgorithm baseline :
         {BaselineAlgorithm::kKMember, BaselineAlgorithm::kOka,
          BaselineAlgorithm::kMondrian}) {
      row.results.push_back(Averaged(Reps(), [&](uint64_t seed) {
        return RunBaselineOnce(*credit, *constraints, baseline, k, seed);
      }));
    }
    sweep.push_back(std::move(row));
  }
  const std::vector<std::string> series = {"MinChoice", "MaxFanOut",
                                           "k-member", "OKA", "Mondrian"};
  PrintSweepTable("Figure 5a — accuracy", "k", series, sweep,
                  &RunResult::accuracy);
  PrintSweepTable("Figure 5b — runtime (s)", "k", series, sweep,
                  &RunResult::seconds);
  std::printf(
      "\npaper shape (5a): everyone's accuracy falls as k grows (larger\n"
      "groups, more suppression); DIVA outperforms because the baselines\n"
      "silently violate diversity constraints, which the accuracy measure\n"
      "counts.\n"
      "paper shape (5b): DIVA variants sit above the baselines (diverse\n"
      "clustering + integration cost); their runtime shrinks with larger k\n"
      "as clusterings smaller than k are pruned during backtracking.\n");
  return 0;
}
