// The batch workloads (popsyn_100k, regions_churn): rounds of one
// publish — CSV read, audited RunDiva, CSV write — followed by the
// workload's chained deltas — parse, ApplyDelta (or, when the publish
// captured no incremental snapshot, ApplyDeltaToRelation plus a cold
// RunDiva), CSV write. A traced run adds a layered publish per round and
// spans around the update calls.

#include <optional>

#include "constraint/parser.h"
#include "core/incremental.h"
#include "metrics/metrics.h"
#include "process.h"
#include "relation/csv.h"
#include "runs.h"
#include "verify/auditor.h"

namespace diva_bench {

using diva::DivaOptions;
using diva::DivaReport;
using diva::Relation;

namespace {

constexpr size_t kSetupReps = 15;

DivaOptions BatchOptions(const RunConfig& config) {
  DivaOptions options;
  options.k = 10;
  options.seed = 42;
  options.threads = config.width;
  options.audit = true;
  options.incremental = config.spec.incremental;
  options.deadline_ms = 0;
  options.baseline = config.spec.name == "regions_churn"
                         ? diva::BaselineAlgorithm::kMondrian
                         : diva::BaselineAlgorithm::kKMember;
  return options;
}

/// Runs this binary in another mode; returns its first stdout line
/// holding `marker` and the child's CPU seconds. Fails unless the child
/// then exits 0.
struct SelfRun {
  std::string line;
  double cpu_seconds = 0.0;
};
diva::Result<SelfRun> RunSelf(std::vector<std::string> args,
                              const std::string& marker) {
  args.insert(args.begin(), SelfDir() + "/diva_bench");
  Child child;
  DIVA_RETURN_IF_ERROR(child.Spawn(args, 1));
  DIVA_ASSIGN_OR_RETURN(std::string line, child.WaitForLine(marker, 120.0));
  if (child.Stop(0, 30.0) != 0) {
    return diva::Status::Internal(args[1] + " mode exited non-zero");
  }
  return SelfRun{std::move(line), child.cpu_seconds()};
}

/// Program start until the first publish could begin: the CPU seconds of
/// a fresh process of this binary in `ready` mode, which starts the pool,
/// loads schema and Sigma, and exits. CPU rather than wall time: these
/// few milliseconds of wall time are mostly scheduler wake-ups, whose
/// level moved 50% between identical sets of runs. One sample per launch.
std::vector<double> MeasureSetup(const RunConfig& config, RunResult* result) {
  std::vector<double> samples;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    auto ready = RunSelf({"ready", "--dir", config.dir, "--width",
                          std::to_string(config.width)},
                         "ready");
    if (!ready.ok()) {
      result->Fail("setup probe: " + ready.status().ToString());
      break;
    }
    samples.push_back(ready->cpu_seconds);
  }
  return samples;
}

/// Peak resident MiB of one publish in a fresh `footprint` process at
/// width 1. At width 4 the peak swings +-15% from run to run with the
/// scheduling of the pool's threads; at width 1 it repeats.
double MeasureFootprint(const RunConfig& config, RunResult* result) {
  auto footprint = RunSelf(
      {"footprint", "--workload", config.spec.name, "--dir", config.dir},
      "footprint");
  if (!result->Check(footprint.ok(), "footprint run failed")) return 0.0;
  return std::strtod(footprint->line.c_str() + std::string("footprint").size(),
                     nullptr);
}

/// The output contract, re-checked by the benchmark: RunDiva audited and
/// satisfied Sigma, and an independent audit of (input, output) passes
/// k, Sigma bounds, containment and star accounting. One check.
void CheckOutput(const std::string& what, const Relation& input,
                 const Relation& output, const DivaReport& report,
                 const DivaOptions& options,
                 const diva::ConstraintSet& constraints, RunResult* result,
                 size_t* unsatisfied) {
  *unsatisfied = std::max(*unsatisfied, report.unsatisfied.size());
  std::string problems;
  if (!report.audited) problems += " the run did not self-audit;";
  if (!report.unsatisfied.empty()) {
    problems += " " + std::to_string(report.unsatisfied.size()) +
                " constraint(s) unsatisfied;";
  }
  diva::AuditOptions audit_options;
  const uint64_t stars = ReportCounter(report, "suppress.stars");
  if (stars > 0) audit_options.expected_added_stars = stars;
  auto audit = diva::AuditAnonymization(input, output, options.k, constraints,
                                        audit_options);
  if (!audit.ok()) {
    problems += " audit error " + audit.status().ToString();
  } else if (!audit->ok()) {
    problems += " " + audit->ToString();
  }
  result->Check(problems.empty(), what + ":" + problems);
}

/// Records `hash` as the expected bytes of `slot`, or checks it.
void CheckSameBytes(const std::string& what, uint64_t hash,
                    std::optional<uint64_t>* slot, RunResult* result) {
  if (!slot->has_value()) *slot = hash;
  result->Check(**slot == hash, what + ": output bytes differ between rounds");
}

}  // namespace

int RunFootprint(const RunConfig& config) {
  auto schema = LoadSchema(SchemaPath(config.dir));
  if (!schema.ok()) return 2;
  auto sigma = diva::LoadConstraintSet(**schema, SigmaPath(config.dir));
  if (!sigma.ok()) return 2;
  DivaOptions options = BatchOptions(config);
  options.threads = 1;
  auto input = diva::ReadCsvFile(DataPath(config.dir), *schema);
  if (!input.ok()) return 2;
  auto run = diva::RunDiva(*input, *sigma, options);
  if (!run.ok()) return 1;
  if (!diva::WriteCsvFile(run->relation, config.dir + "/footprint.csv").ok()) {
    return 2;
  }
  std::printf("footprint %.17g\n", PeakRssMb());
  return 0;
}

void RunBatch(const RunConfig& config, RunResult* result) {
  const std::string& dir = config.dir;
  auto schema = LoadSchema(SchemaPath(dir));
  if (!schema.ok()) return result->Fail(schema.status().ToString());
  auto sigma = diva::LoadConstraintSet(**schema, SigmaPath(dir));
  if (!sigma.ok()) return result->Fail(sigma.status().ToString());
  const diva::ConstraintSet& constraints = *sigma;
  const DivaOptions options = BatchOptions(config);

  const std::vector<double> setup_s = MeasureSetup(config, result);

  const std::string published_csv = dir + "/published.csv";
  const std::string traced_csv = dir + "/published_traced.csv";
  const std::string updated_csv = dir + "/updated.csv";
  SpanRecorder spans;
  LayerSplit split;
  std::vector<double> publish_s;
  std::vector<double> update_s;
  std::vector<double> round_rss_mb;  // peak resident set of each round
  std::optional<uint64_t> publish_hash;
  std::vector<std::optional<uint64_t>> update_hash(config.spec.deltas);
  double stars_frac = 0.0;
  size_t unsatisfied = 0;
  size_t components = 0;
  std::optional<Relation> last_input;    // final update's post-delta input
  std::optional<Relation> last_output;   // and its published relation

  // Round 0 warms the heap and the caches and is not timed. Timed rounds
  // start until the run's time is up (at least three).
  double start = 0.0;
  size_t rounds = 0;
  bool broken = false;
  for (size_t round = 0; !broken; ++round) {
    const bool warmup = round == 0;
    if (round == 1) start = diva::MonotonicSeconds();
    if (round > 3 && Since(start) >= config.seconds) break;
    if (!warmup && !ResetPeakRss()) result->Fail("cannot reset VmHWM");
    const bool traced_round = config.trace && !warmup;
    // Untraced publish: what a user of the library runs.
    result->Attempt();
    double t0 = diva::MonotonicSeconds();
    auto input = diva::ReadCsvFile(DataPath(dir), *schema);
    if (!input.ok()) return result->Fail("read: " + input.status().ToString());
    auto run = diva::RunDiva(*input, constraints, options);
    if (!run.ok()) return result->Fail("publish: " + run.status().ToString());
    diva::Status written = diva::WriteCsvFile(run->relation, published_csv);
    const double publish_seconds = Since(t0);
    if (!written.ok()) return result->Fail("write: " + written.ToString());
    if (!warmup) publish_s.push_back(publish_seconds);
    CheckOutput("publish", *input, run->relation, run->report, options,
                constraints, result, &unsatisfied);
    const uint64_t hash = HashRelation(run->relation);
    CheckSameBytes("publish", hash, &publish_hash, result);
    stars_frac = diva::SuppressionRatio(run->relation);
    components = run->report.shards;
    if (config.spec.incremental) {
      result->Check(run->snapshot != nullptr,
                    "publish captured no incremental snapshot");
    }

    if (traced_round) {
      split.untraced_publish_s.push_back(publish_seconds);
      split.reports.push_back(run->report);
      // Traced publish: the same work, one span per layer call.
      result->Attempt();
      const uint64_t op = spans.BeginOperation();
      t0 = diva::MonotonicSeconds();
      diva::Result<Relation> traced = diva::Status::Internal("not run");
      {
        ScopedSpan root(&spans, "publish");
        diva::Result<Relation> traced_input = [&] {
          ScopedSpan span(&spans, "relation.csv_read");
          return diva::ReadCsvFile(DataPath(dir), *schema);
        }();
        traced = traced_input.ok()
                     ? RunLayered(*traced_input, constraints, options, &spans,
                                  &split.counts)
                     : traced_input.status();
        if (traced.ok()) {
          ScopedSpan span(&spans, "relation.csv_write");
          written = diva::WriteCsvFile(*traced, traced_csv);
        }
      }
      const double traced_seconds = Since(t0);
      if (!traced.ok() || !written.ok()) {
        result->Fail("traced publish: " + (traced.ok() ? written.ToString()
                                                       : traced.status().ToString()));
      } else if (result->Check(HashRelation(*traced) == hash,
                               "traced publish differs from RunDiva's bytes")) {
        split.traced_publish_s.push_back(traced_seconds);
        split.AddOperation(spans, op, "publish");
      }
    }

    // The chained deltas of this round.
    std::shared_ptr<const diva::PipelineSnapshot> snapshot = run->snapshot;
    Relation current = std::move(*input);
    for (size_t j = 0; j < config.spec.deltas; ++j) {
      result->Attempt();
      SpanRecorder* tracer = traced_round ? &spans : nullptr;
      const uint64_t op = traced_round ? spans.BeginOperation() : 0;
      std::optional<Relation> post;  // the cold fallback's input
      double reused = 0.0;     // incremental.shards_reused of ApplyDelta
      double recolored = 0.0;  // and incremental.shards_recolored
      diva::Result<diva::DivaResult> updated = diva::Status::Internal("not run");
      t0 = diva::MonotonicSeconds();
      {
        ScopedSpan root(tracer, "update");
        diva::Result<diva::DeltaBatch> delta = [&]() -> diva::Result<diva::DeltaBatch> {
          ScopedSpan span(tracer, "core.delta_parse");
          DIVA_ASSIGN_OR_RETURN(std::string text, ReadText(DeltaPath(dir, j)));
          return diva::ParseDeltaFile(text);
        }();
        if (!delta.ok()) {
          updated = delta.status();
        } else {
          ScopedSpan span(tracer, "core.delta_apply");
          if (snapshot != nullptr) {
            const auto before = diva::counters::Snapshot();
            updated = diva::ApplyDelta(*snapshot, *delta, options);
            const auto after = diva::counters::Snapshot();
            reused = static_cast<double>(
                CounterDelta(before, after, "incremental.shards_reused"));
            recolored = static_cast<double>(
                CounterDelta(before, after, "incremental.shards_recolored"));
          } else {
            auto applied = diva::ApplyDeltaToRelation(current, *delta);
            if (applied.ok()) {
              post.emplace(std::move(applied).value());
              updated = diva::RunDiva(*post, constraints, options);
            } else {
              updated = applied.status();
            }
          }
        }
        if (updated.ok()) {
          ScopedSpan span(tracer, "relation.csv_write");
          written = diva::WriteCsvFile(updated->relation, updated_csv);
        }
      }
      const double update_seconds = Since(t0);
      if (!updated.ok() || !written.ok()) {
        result->Fail("update: " + (updated.ok() ? written.ToString()
                                                : updated.status().ToString()));
        broken = true;
        break;
      }
      if (!warmup) update_s.push_back(update_seconds);
      const bool incremental = updated->snapshot != nullptr;
      const Relation& post_input = incremental ? *updated->snapshot->input : *post;
      CheckOutput("update " + std::to_string(j), post_input, updated->relation,
                  updated->report, options, constraints, result, &unsatisfied);
      CheckSameBytes("update " + std::to_string(j),
                     HashRelation(updated->relation), &update_hash[j], result);
      if (config.spec.incremental) {
        result->Check(incremental,
                      "update " + std::to_string(j) + " lost the snapshot chain");
      }
      if (traced_round) {
        split.AddOperation(spans, op, "update");
        split.shards_reused_frac.push_back(
            reused + recolored > 0 ? reused / (reused + recolored) : 0.0);
      }
      last_input.emplace(post_input);
      last_output.emplace(std::move(updated->relation));
      current = *last_input;
      snapshot = updated->snapshot;
    }
    if (!warmup) {
      ++rounds;
      round_rss_mb.push_back(PeakRssMb());
    }
  }
  const double measured_seconds = Since(start);

  // Untimed end checks: the CSVs read back still audit against their
  // inputs, and the last incremental update equals a cold run.
  if (publish_hash.has_value()) {
    auto input = diva::ReadCsvFile(DataPath(dir), *schema);
    auto back = diva::ReadCsvFile(published_csv, *schema);
    if (!input.ok() || !back.ok()) {
      result->Fail("cannot read the published CSV back");
    } else {
      auto audit = diva::AuditAnonymization(*input, *back, options.k, constraints);
      result->Check(audit.ok() && audit->ok(), "published CSV fails its audit");
      result->Check(HashRelation(*back) == *publish_hash,
                    "published CSV differs from the published relation");
    }
  }
  if (last_output.has_value()) {
    auto back = diva::ReadCsvFile(updated_csv, *schema);
    if (!back.ok()) {
      result->Fail("cannot read the updated CSV back");
    } else {
      auto audit =
          diva::AuditAnonymization(*last_input, *back, options.k, constraints);
      result->Check(audit.ok() && audit->ok(), "updated CSV fails its audit");
    }
    if (config.spec.incremental) {
      DivaOptions cold = options;
      cold.incremental = false;
      auto rerun = diva::RunDiva(*last_input, constraints, cold);
      result->Check(rerun.ok() && HashRelation(rerun->relation) ==
                                      HashRelation(*last_output),
                    "incremental update differs from a cold RunDiva");
    }
  }

  result->MetaNumber("rounds", static_cast<double>(rounds));
  result->MetaNumber("measured_seconds", measured_seconds);
  result->MetaNumber("components", static_cast<double>(components));
  result->MetaNumber("unsatisfied", static_cast<double>(unsatisfied));
  result->MetaSamples("setup_samples_s", setup_s);
  result->MetaSamples("publish_samples_s", publish_s);
  result->MetaSamples("update_samples_s", update_s);
  result->MetaSamples("round_peak_rss_mb", round_rss_mb);
  if (!config.trace) {
    result->Metric("setup_s", Median(setup_s), "s");
    result->Metric("publish_s", Median(publish_s), "s");
    result->Metric("update_s", Median(update_s), "s");
    result->Metric("peak_rss_mb", MeasureFootprint(config, result), "MiB");
    result->Metric("stars_frac", stars_frac, "ratio");
    return;
  }

  if (!spans.WriteJson(dir + "/spans.json")) result->Fail("cannot write spans.json");
  // The serve layer beside a batch workload: a short session on the
  // tiny serve base, and that base's in-process pipeline.
  ServeFigures serve;
  RunServeSession(ProbeDir(dir), config.seed, 2.0, 20, result, &serve);
  const double pipeline_ms = PipelineMillis(ProbeDir(dir), 10, result);
  split.unsatisfied = unsatisfied;
  EmitLayerMetrics(split, serve, pipeline_ms, result);
}

}  // namespace diva_bench
