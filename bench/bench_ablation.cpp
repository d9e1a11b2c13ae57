// Ablation study for the design choices called out in DESIGN.md §5:
//   (1) candidate-pool cap of the clustering enumerator,
//   (2) ordered (minimal-suppression-first) vs shuffled candidates,
//   (5) coloring step budget,
//   (6) portfolio coloring threads.
// Each knob is varied in isolation on a fixed Pop-Syn workload.

#include <functional>

#include "bench/bench_common.h"
#include "constraint/generator.h"
#include "metrics/metrics.h"

using namespace diva;         // NOLINT
using namespace diva::bench;  // NOLINT

namespace {

struct Workload {
  Relation relation;
  ConstraintSet constraints;
};

Workload MakeWorkload() {
  ProfileOptions profile_options;
  profile_options.num_rows = static_cast<size_t>(100000 * Scale());
  profile_options.seed = 33;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  DIVA_CHECK(relation.ok());
  ConstraintGenOptions gen;
  gen.count = 8;
  gen.min_support = 50;
  gen.seed = 33;
  auto constraints = GenerateConstraints(*relation, gen);
  DIVA_CHECK(constraints.ok());
  return {std::move(relation).value(), std::move(constraints).value()};
}

/// Runs DIVA with a caller-tweaked option set and reports accuracy,
/// runtime and colored-constraint count.
void Report(const Workload& workload, const char* label,
            const std::function<void(DivaOptions*)>& tweak) {
  DivaOptions options;
  options.k = 10;
  options.seed = 33;
  options.coloring_budget = ColoringBudget();
  tweak(&options);

  StopWatch watch;
  auto result = RunDiva(workload.relation, workload.constraints, options);
  double seconds = watch.ElapsedSeconds();
  DIVA_CHECK_MSG(result.ok(), result.status().ToString());
  std::printf("%-34s  acc=%.4f  time=%7.3fs  colored=%zu/%zu  steps=%llu\n",
              label,
              OverallAccuracy(result->relation, options.k,
                              workload.constraints),
              seconds, result->report.colored_constraints,
              result->report.total_constraints,
              static_cast<unsigned long long>(result->report.coloring_steps));
}

}  // namespace

int main() {
  PrintPreamble("Ablations", "DESIGN.md §5 design choices, varied in isolation");
  Workload workload = MakeWorkload();
  std::printf("workload: Pop-Syn |R|=%zu, |Sigma|=%zu, k=10\n\n",
              workload.relation.NumRows(), workload.constraints.size());

  std::printf("--- (1) candidate-pool cap (MaxFanOut, ordered) ---\n");
  for (size_t cap : {8u, 16u, 64u, 256u}) {
    std::string label = "max_clusterings=" + std::to_string(cap);
    Report(workload, label.c_str(), [cap](DivaOptions* options) {
      options->auto_tune_enumeration = false;
      options->enumeration.max_clusterings = cap;
      options->enumeration.seed = options->seed;
    });
  }

  std::printf("\n--- (2) candidate order ---\n");
  Report(workload, "ordered (min suppression first)",
         [](DivaOptions* options) {
           options->auto_tune_enumeration = false;
           options->enumeration.ordered = true;
           options->enumeration.seed = options->seed;
         });
  Report(workload, "shuffled (Basic's order)", [](DivaOptions* options) {
    options->auto_tune_enumeration = false;
    options->enumeration.ordered = false;
    options->enumeration.seed = options->seed;
  });

  std::printf("\n--- (5) coloring step budget ---\n");
  for (uint64_t budget : {1000ULL, 10000ULL, 100000ULL}) {
    std::string label = "budget=" + std::to_string(budget);
    Report(workload, label.c_str(), [budget](DivaOptions* options) {
      options->coloring_budget = budget;
    });
  }

  std::printf("\n--- (6) portfolio coloring threads ---\n");
  for (size_t threads : {1u, 2u, 4u}) {
    std::string label = "portfolio_threads=" + std::to_string(threads);
    Report(workload, label.c_str(), [threads](DivaOptions* options) {
      options->portfolio_threads = threads;
    });
  }

  return 0;
}
