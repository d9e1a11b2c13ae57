// bench_smoke — small fixed-seed DIVA run timed at each width of the
// thread sweep, emitting BENCH_smoke.json for CI baselines. Two promises
// are checked on every run:
//
//   1. Determinism: the published CSV hashes identically at every thread
//      count (the process exits 1 otherwise — CI fails on the spot).
//   2. Speed: per-phase wall times are recorded per width, so the stored
//      baseline documents the clustering-phase scaling on CI hardware.
//   3. Deadline-poll overhead: the widest run is repeated without a
//      deadline and under a generous never-expiring one; the armed token
//      costs one relaxed atomic load per poll, so the ratio must stay in
//      the noise and the two outputs must hash identically.
//   4. Tracing overhead: the single-threaded run is repeated in five
//      interleaved (tracing-off, tracing-on) pairs. Even the enabled
//      path (one timestamped ring-buffer append per span) must stay
//      within 2% of tracing-off — gated on the minimum per-pair ratio,
//      which is immune to shared-runner CPU-steal noise — bounding the
//      disabled path's one-relaxed-load-per-site cost from above.
//      Outputs must hash identically in both modes.
//
// Every per-width row in the emitted JSON also carries the run's
// counter delta (common/counters.h), so stored baselines document the
// work profile (coloring steps, suppressed cells, pool chunks, ...)
// next to the timings.
//
// Usage: bench_smoke [output.json]   (default BENCH_smoke.json)
// Knobs: DIVA_BENCH_THREADS="1,2,4,8" overrides the sweep;
//        DIVA_BENCH_SMOKE_ROWS overrides the row count (default 4000).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/trace.h"
#include "constraint/generator.h"
#include "relation/csv.h"

namespace {

using namespace diva;  // NOLINT: bench brevity

struct SmokeRun {
  size_t threads = 0;
  double clustering_seconds = 0.0;
  double anonymize_seconds = 0.0;
  double integrate_seconds = 0.0;
  double total_seconds = 0.0;
  uint64_t output_hash = 0;
  std::string counters_json = "[]";
};

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

size_t SmokeRows() {
  if (const char* env = std::getenv("DIVA_BENCH_SMOKE_ROWS")) {
    long rows = std::atol(env);
    if (rows > 0) return static_cast<size_t>(rows);
  }
  return 4000;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string output_path = argc > 1 ? argv[1] : "BENCH_smoke.json";
  constexpr size_t kK = 8;
  constexpr uint64_t kSeed = 1000;  // fixed: the smoke run never varies
  const size_t rows = SmokeRows();

  ProfileOptions profile_options;
  profile_options.num_rows = rows;
  profile_options.seed = kSeed;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  if (!relation.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 relation.status().ToString().c_str());
    return 2;
  }
  ConstraintGenOptions constraint_options;
  constraint_options.count = 12;
  constraint_options.seed = kSeed;
  auto constraints = GenerateConstraints(*relation, constraint_options);
  if (!constraints.ok()) {
    std::fprintf(stderr, "constraint generation failed: %s\n",
                 constraints.status().ToString().c_str());
    return 2;
  }

  bench::PrintPreamble("smoke", "fixed-seed thread-sweep phase timings");
  std::printf("rows=%zu k=%zu constraints=%zu hardware_concurrency=%zu\n",
              rows, kK, constraints->size(), HardwareConcurrency());

  std::vector<SmokeRun> runs;
  for (size_t threads : bench::BenchThreads()) {
    DivaOptions options;
    options.k = kK;
    options.seed = kSeed;
    options.threads = threads;
    options.coloring_budget = bench::ColoringBudget();
    options.anonymizer.seed = kSeed;
    auto result = RunDiva(*relation, *constraints, options);
    if (!result.ok()) {
      std::fprintf(stderr, "RunDiva failed at threads=%zu: %s\n", threads,
                   result.status().ToString().c_str());
      return 2;
    }
    std::ostringstream csv;
    if (!WriteCsv(result->relation, csv).ok()) {
      std::fprintf(stderr, "WriteCsv failed at threads=%zu\n", threads);
      return 2;
    }
    SmokeRun run;
    run.threads = threads;
    run.clustering_seconds = result->report.clustering_seconds;
    run.anonymize_seconds = result->report.anonymize_seconds;
    run.integrate_seconds = result->report.integrate_seconds;
    run.total_seconds = result->report.total_seconds;
    run.output_hash = Fnv1a(csv.str());
    run.counters_json = counters::ToJson(result->report.counters);
    runs.push_back(run);
    std::printf(
        "threads=%zu  clustering=%.3fs  anonymize=%.3fs  integrate=%.3fs  "
        "total=%.3fs  output=fnv1a:%016llx\n",
        run.threads, run.clustering_seconds, run.anonymize_seconds,
        run.integrate_seconds, run.total_seconds,
        static_cast<unsigned long long>(run.output_hash));
  }

  bool deterministic = true;
  for (const SmokeRun& run : runs) {
    deterministic &= run.output_hash == runs.front().output_hash;
  }
  if (!deterministic) {
    std::fprintf(stderr,
                 "DETERMINISM FAILURE: outputs differ across thread "
                 "counts\n");
  }

  // Deadline-poll overhead: the same run once without a deadline and once
  // under a generous (never-expiring) one. The armed token costs one
  // relaxed atomic load per poll, so the two totals must sit within run
  // noise of each other, and — since the token never trips — the outputs
  // must hash identically.
  double no_deadline_total = 0.0;
  double generous_deadline_total = 0.0;
  uint64_t no_deadline_hash = 0;
  uint64_t generous_deadline_hash = 0;
  for (int64_t deadline_ms : {int64_t{0}, int64_t{600000}}) {
    DivaOptions options;
    options.k = kK;
    options.seed = kSeed;
    options.threads = runs.back().threads;
    options.coloring_budget = bench::ColoringBudget();
    options.anonymizer.seed = kSeed;
    options.deadline_ms = deadline_ms;
    auto result = RunDiva(*relation, *constraints, options);
    if (!result.ok()) {
      std::fprintf(stderr, "RunDiva failed at deadline_ms=%lld: %s\n",
                   static_cast<long long>(deadline_ms),
                   result.status().ToString().c_str());
      return 2;
    }
    std::ostringstream csv;
    if (!WriteCsv(result->relation, csv).ok()) {
      std::fprintf(stderr, "WriteCsv failed at deadline_ms=%lld\n",
                   static_cast<long long>(deadline_ms));
      return 2;
    }
    if (deadline_ms == 0) {
      no_deadline_total = result->report.total_seconds;
      no_deadline_hash = Fnv1a(csv.str());
    } else {
      generous_deadline_total = result->report.total_seconds;
      generous_deadline_hash = Fnv1a(csv.str());
    }
  }
  double deadline_overhead_ratio =
      no_deadline_total > 0.0 ? generous_deadline_total / no_deadline_total
                              : 1.0;
  bool deadline_output_identical = no_deadline_hash == generous_deadline_hash;
  if (!deadline_output_identical) {
    deterministic = false;
    std::fprintf(stderr,
                 "DETERMINISM FAILURE: a never-expiring deadline changed "
                 "the output\n");
  }
  std::printf(
      "deadline overhead (threads=%zu): none=%.3fs generous=%.3fs "
      "ratio=%.3f output_identical=%s\n",
      runs.back().threads, no_deadline_total, generous_deadline_total,
      deadline_overhead_ratio, deadline_output_identical ? "yes" : "no");

  // Tracing overhead: the same single-threaded run with span tracing off
  // and then on, five interleaved (off, on) pairs. The enabled path adds
  // a timestamped ring-buffer append per span (~142 ns, or ~1 ms across
  // the whole run), the disabled path a single relaxed atomic load per
  // site, so even tracing ON must stay within 2% of tracing OFF — which
  // bounds the disabled-path cost over the pre-instrumentation build.
  // Shared-runner noise is multiplicative (CPU steal) and far above 2%,
  // so the gate is on the *minimum per-pair ratio*: pairing cancels slow
  // drift, the minimum discards steal-contaminated pairs, and a real >2%
  // overhead would still fail every pair. Tracing never touches the
  // pipeline's data, so the outputs must hash identically.
  double tracing_off_total = 0.0;
  double tracing_on_total = 0.0;
  double tracing_overhead_ratio = 0.0;
  uint64_t tracing_off_hash = 0;
  uint64_t tracing_on_hash = 0;
  for (int rep = 0; rep < 5; ++rep) {
    double pair_total[2] = {0.0, 0.0};
    for (bool tracing_on : {false, true}) {
      DivaOptions options;
      options.k = kK;
      options.seed = kSeed;
      options.threads = 1;
      options.coloring_budget = bench::ColoringBudget();
      options.anonymizer.seed = kSeed;
      if (tracing_on) trace::Enable();
      auto result = RunDiva(*relation, *constraints, options);
      if (tracing_on) trace::Disable();
      if (!result.ok()) {
        std::fprintf(stderr, "RunDiva failed at tracing=%s: %s\n",
                     tracing_on ? "on" : "off",
                     result.status().ToString().c_str());
        return 2;
      }
      std::ostringstream csv;
      if (!WriteCsv(result->relation, csv).ok()) {
        std::fprintf(stderr, "WriteCsv failed at tracing=%s\n",
                     tracing_on ? "on" : "off");
        return 2;
      }
      double total = result->report.total_seconds;
      pair_total[tracing_on ? 1 : 0] = total;
      double& best = tracing_on ? tracing_on_total : tracing_off_total;
      best = rep == 0 ? total : std::min(best, total);
      (tracing_on ? tracing_on_hash : tracing_off_hash) = Fnv1a(csv.str());
    }
    double pair_ratio =
        pair_total[0] > 0.0 ? pair_total[1] / pair_total[0] : 1.0;
    tracing_overhead_ratio = rep == 0
                                 ? pair_ratio
                                 : std::min(tracing_overhead_ratio,
                                            pair_ratio);
  }
  size_t tracing_events = trace::Collect().size();
  uint64_t tracing_dropped = trace::DroppedEvents();
  bool tracing_output_identical = tracing_off_hash == tracing_on_hash;
  bool tracing_overhead_ok = tracing_overhead_ratio <= 1.02;
  if (!tracing_output_identical) {
    deterministic = false;
    std::fprintf(stderr,
                 "DETERMINISM FAILURE: enabling tracing changed the "
                 "output\n");
  }
  if (!tracing_overhead_ok) {
    std::fprintf(stderr,
                 "TRACING OVERHEAD FAILURE: tracing-on run is %.1f%% "
                 "slower than tracing-off (must be within 2%%)\n",
                 (tracing_overhead_ratio - 1.0) * 100.0);
  }
  std::printf(
      "tracing overhead (threads=1): off=%.3fs on=%.3fs "
      "min_pair_on/off=%.3f events=%zu dropped=%llu output_identical=%s\n",
      tracing_off_total, tracing_on_total, tracing_overhead_ratio,
      tracing_events, static_cast<unsigned long long>(tracing_dropped),
      tracing_output_identical ? "yes" : "no");

  const SmokeRun& first = runs.front();
  const SmokeRun& last = runs.back();
  double clustering_speedup =
      last.clustering_seconds > 0.0
          ? first.clustering_seconds / last.clustering_seconds
          : 1.0;
  double total_speedup =
      last.total_seconds > 0.0 ? first.total_seconds / last.total_seconds
                               : 1.0;
  std::printf("speedup (threads=%zu vs %zu): clustering %.2fx, total %.2fx\n",
              last.threads, first.threads, clustering_speedup, total_speedup);

  std::ofstream json(output_path);
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", output_path.c_str());
    return 2;
  }
  json << "{\n"
       << "  \"bench\": \"smoke\",\n"
       << "  \"rows\": " << rows << ",\n"
       << "  \"k\": " << kK << ",\n"
       << "  \"constraints\": " << constraints->size() << ",\n"
       << "  \"seed\": " << kSeed << ",\n"
       << "  \"hardware_concurrency\": " << HardwareConcurrency() << ",\n"
       << "  \"deterministic_across_threads\": "
       << (deterministic ? "true" : "false") << ",\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const SmokeRun& run = runs[i];
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(run.output_hash));
    json << "    {\"threads\": " << run.threads
         << ", \"clustering_seconds\": " << run.clustering_seconds
         << ", \"anonymize_seconds\": " << run.anonymize_seconds
         << ", \"integrate_seconds\": " << run.integrate_seconds
         << ", \"total_seconds\": " << run.total_seconds
         << ", \"output_fnv1a\": \"" << hash << "\""
         << ", \"counters\": " << run.counters_json << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"clustering_speedup\": " << clustering_speedup << ",\n"
       << "  \"total_speedup\": " << total_speedup << ",\n"
       << "  \"deadline_overhead\": {\"threads\": " << runs.back().threads
       << ", \"no_deadline_total_seconds\": " << no_deadline_total
       << ", \"generous_deadline_total_seconds\": " << generous_deadline_total
       << ", \"overhead_ratio\": " << deadline_overhead_ratio
       << ", \"output_identical\": "
       << (deadline_output_identical ? "true" : "false") << "},\n"
       << "  \"tracing_overhead\": {\"threads\": " << 1
       << ", \"tracing_off_total_seconds\": " << tracing_off_total
       << ", \"tracing_on_total_seconds\": " << tracing_on_total
       << ", \"min_pair_overhead_ratio\": " << tracing_overhead_ratio
       << ", \"within_2_percent\": "
       << (tracing_overhead_ok ? "true" : "false")
       << ", \"output_identical\": "
       << (tracing_output_identical ? "true" : "false") << "}\n"
       << "}\n";
  std::printf("wrote %s\n", output_path.c_str());

  return deterministic && tracing_overhead_ok ? 0 : 1;
}
