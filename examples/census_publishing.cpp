// Census microdata release planner: sweeps the privacy parameter k and
// the DIVA node-selection strategy over a census-style workload and
// prints an accuracy/runtime decision table — the analysis a data
// steward would run before settling on release parameters.

#include <cstdio>
#include <vector>

#include "common/timer.h"
#include "core/diva.h"
#include "datagen/profiles.h"
#include "examples/example_util.h"
#include "metrics/metrics.h"
#include "relation/qi_groups.h"

namespace {

using namespace diva;            // NOLINT: example brevity
using namespace diva::examples;  // NOLINT

}  // namespace

int main() {
  constexpr size_t kRows = 8000;  // scaled-down census extract

  ProfileOptions profile_options;
  profile_options.num_rows = kRows;
  profile_options.seed = 11;
  auto census = GenerateProfile(DatasetProfile::kCensus, profile_options);
  DIVA_CHECK(census.ok());

  auto constraints =
      DefaultConstraints(DatasetProfile::kCensus, *census, /*seed=*/11);
  DIVA_CHECK(constraints.ok());

  std::printf("Census extract: %zu rows, %zu attributes, |Sigma| = %zu\n\n",
              census->NumRows(), census->NumAttributes(),
              constraints->size());

  std::printf("%-4s  %-10s  %-10s  %-10s  %-12s  %-10s\n", "k", "strategy",
              "accuracy", "stars%", "satisfied%", "time(s)");
  std::printf("%s\n", std::string(66, '-').c_str());

  for (size_t k : {5u, 10u, 20u, 40u}) {
    for (SelectionStrategy strategy :
         {SelectionStrategy::kMinChoice, SelectionStrategy::kMaxFanOut}) {
      DivaOptions options;
      options.k = k;
      options.strategy = strategy;
      options.seed = 17;
      options.coloring_budget = 100000;  // keep the demo interactive

      StopWatch watch;
      auto result = RunDiva(*census, *constraints, options);
      DIVA_CHECK(result.ok());
      double seconds = watch.ElapsedSeconds();

      DIVA_CHECK(IsKAnonymous(result->relation, k));
      std::printf("%-4zu  %-10s  %-10.3f  %-10.1f  %-12.0f  %-10.2f\n", k,
                  SelectionStrategyToString(strategy),
                  OverallAccuracy(result->relation, k, *constraints),
                  100.0 * SuppressionRatio(result->relation),
                  100.0 * SatisfiedFraction(result->relation, *constraints),
                  seconds);
    }
  }

  std::printf(
      "\nReading the table: pick the largest k whose accuracy is still\n"
      "acceptable for the downstream analysis; MaxFanOut is the default\n"
      "strategy (it prunes conflicting clusterings earliest).\n");
  return 0;
}
