// anonymize_cli — command-line (k, Sigma)-anonymization tool.
//
// Reads a CSV relation, a schema declaration, and a diversity-constraint
// file; runs DIVA (or one of the baseline k-anonymizers) and writes the
// anonymized CSV plus a quality report.
//
// Usage:
//   anonymize_cli --input data.csv --schema schema.txt --k 10
//       [--constraints sigma.txt] [--algorithm diva|kmember|oka|mondrian]
//       [--strategy basic|minchoice|maxfanout] [--seed N]
//       [--taxonomy ATTR=taxonomy.txt]... [--json]
//       [--strict] [--deadline-ms N] [--trace-out trace.json]
//       [--apply-delta delta.txt] [--output out.csv]
//
// Each flag takes "--flag value" or "--flag=value". An unknown flag or a
// flag without its value exits 1 before anything is read, and so does a
// DIVA-only flag (--strategy, --strict, --deadline-ms, --taxonomy,
// --apply-delta, --json) given with a baseline --algorithm.
//
// --apply-delta FILE (DIVA only) re-anonymizes incrementally: the run on
// --input captures a reusable snapshot, FILE's row delta is applied to
// it, and only the conflict-graph components the delta touches are
// re-colored — clean components, a connected input's single one
// included, adopt the prior run's clusterings. The published output is
// byte-identical to a cold run on the post-delta relation
// (core/incremental.h). That relation keeps the input's value
// dictionaries, so a CSV of the same rows that meets its values in
// another order may anonymize differently. A generalized (--taxonomy)
// or degraded run captures no snapshot and exits 1. Delta file format:
// one directive per line — "- <row_id>" deletes a row of the input CSV
// (0-based), "+ v1,v2,..." inserts a row ("*" = suppressed cell); '#'
// comments and blank lines are ignored.
//
// Components run as concurrent work items on DIVA_THREADS workers; the
// width never changes output bytes (see docs/development.md, "Component
// sharding").
//
// --deadline-ms N bounds the run's wall time: on expiry DIVA publishes
// its best-effort (still k-anonymous) relation and flags the degraded
// phases in the report; with --strict expiry is an error. Equivalent to
// the DIVA_DEADLINE_MS environment knob, which it overrides.
//
// --trace-out FILE enables span tracing for the run and writes a
// Chrome-trace JSON (open in ui.perfetto.dev or chrome://tracing) with
// one span per pipeline phase and per pool chunk; see "Observability"
// in docs/development.md. A traced DIVA run also turns on the self-audit
// so the trace covers all five phases (clustering, suppress, anonymize,
// integrate, audit). Without the flag, tracing stays off and costs one
// relaxed atomic load per span site.
//
// Schema file: one attribute per line, "NAME,role,kind" where role is
// id|qi|sensitive and kind is cat|num. Example:
//   GEN,qi,cat
//   AGE,qi,num
//   DIAG,sensitive,cat
//
// Constraint file: one constraint per line, e.g. "ETH[Asian] in [2,5]"
// ('#' comments allowed).

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "anon/anonymizer.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "constraint/analysis.h"
#include "constraint/parser.h"
#include "core/diva.h"
#include "core/incremental.h"
#include "core/report_json.h"
#include "hierarchy/generalize.h"
#include "examples/example_util.h"
#include "metrics/metrics.h"
#include "relation/csv.h"
#include "relation/qi_groups.h"

namespace {

using namespace diva;            // NOLINT: example brevity
using namespace diva::examples;  // NOLINT

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // ^C degrades the run through the anytime pipeline and still flushes
  // the partial report; a dead pager/pipe is a write error, not SIGPIPE.
  InstallSignalHygiene();
  auto parsed_args = Flags::Parse(
      argc, argv,
      {"input", "schema", "k", "constraints", "algorithm", "strategy", "seed",
       "taxonomy", "deadline-ms", "trace-out", "apply-delta", "output"},
      {"json", "strict"});
  if (!parsed_args.ok()) {
    return Fail(parsed_args.status().message() + " (see file header)");
  }
  const Flags args = std::move(parsed_args).value();
  if (!args.Has("input") || !args.Has("schema") || !args.Has("k")) {
    return Fail("--input, --schema and --k are required (see file header)");
  }
  // --algorithm names DIVA or one of the baselines it can run alone.
  const std::map<std::string, BaselineAlgorithm> baselines = {
      {"kmember", BaselineAlgorithm::kKMember},
      {"oka", BaselineAlgorithm::kOka},
      {"mondrian", BaselineAlgorithm::kMondrian}};
  const std::string algorithm =
      args.Has("algorithm") ? ToLowerAscii(args.Get("algorithm")) : "diva";
  if (algorithm != "diva" && baselines.count(algorithm) == 0) {
    return Fail("unknown --algorithm '" + algorithm + "'");
  }
  for (const char* flag : {"strategy", "strict", "deadline-ms", "taxonomy",
                           "apply-delta", "json"}) {
    if (algorithm != "diva" && args.Has(flag)) {
      return Fail(std::string("--") + flag +
                  " applies to --algorithm diva only, not '" + algorithm +
                  "'");
    }
  }

  auto schema = LoadSchemaFile(args.Get("schema"));
  if (!schema.ok()) return Fail(schema.status().ToString());

  auto relation = ReadCsvFile(args.Get("input"), *schema);
  if (!relation.ok()) return Fail(relation.status().ToString());

  auto k = ParseInt64(args.Get("k"));
  if (!k.ok() || *k < 1) return Fail("--k must be a positive integer");

  ConstraintSet constraints;
  if (args.Has("constraints")) {
    auto loaded = LoadConstraintSet(**schema, args.Get("constraints"));
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    constraints = std::move(loaded).value();
  }

  uint64_t seed = 42;
  if (args.Has("seed")) {
    auto parsed = ParseInt64(args.Get("seed"));
    if (!parsed.ok()) return Fail("--seed must be an integer");
    seed = static_cast<uint64_t>(*parsed);
  }

  // Optional per-attribute taxonomies (LCA generalization instead of *).
  std::shared_ptr<GeneralizationContext> generalization;
  if (args.Has("taxonomy")) {
    generalization =
        std::make_shared<GeneralizationContext>((*schema)->NumAttributes());
    for (const std::string& spec : args.GetAll("taxonomy")) {
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return Fail("--taxonomy expects ATTR=path, got '" + spec + "'");
      }
      auto attr = (*schema)->IndexOf(spec.substr(0, eq));
      if (!attr.has_value()) {
        return Fail("--taxonomy references unknown attribute '" +
                    spec.substr(0, eq) + "'");
      }
      std::ifstream taxonomy_file(spec.substr(eq + 1));
      if (!taxonomy_file) {
        return Fail("cannot open taxonomy file '" + spec.substr(eq + 1) +
                    "'");
      }
      std::ostringstream buffer;
      buffer << taxonomy_file.rdbuf();
      auto taxonomy = Taxonomy::FromText(buffer.str());
      if (!taxonomy.ok()) return Fail(taxonomy.status().ToString());
      generalization->SetTaxonomy(*attr, std::move(taxonomy).value());
    }
  }

  // Pre-flight lint: warn about constraints no algorithm can satisfy.
  for (const ConstraintIssue& issue :
       AnalyzeConstraintSet(*relation, constraints,
                            static_cast<size_t>(*k))) {
    std::fprintf(stderr, "warning [%s]: %s\n",
                 ConstraintIssueKindToString(issue.kind),
                 issue.message.c_str());
  }

  const bool tracing = args.Has("trace-out");
  if (tracing) trace::Enable();

  Relation output((*schema));
  if (algorithm == "diva") {
    DivaOptions options;
    options.k = static_cast<size_t>(*k);
    options.seed = seed;
    options.strict = args.Has("strict");
    options.generalization = generalization;
    options.cancel = InterruptToken();
    // A traced run audits too, so the trace shows every pipeline phase.
    if (tracing) options.audit = true;
    if (args.Has("deadline-ms")) {
      auto deadline_ms = ParseInt64(args.Get("deadline-ms"));
      if (!deadline_ms.ok() || *deadline_ms < 0) {
        return Fail("--deadline-ms must be a non-negative integer");
      }
      options.deadline_ms = *deadline_ms;
    }
    std::string strategy =
        args.Has("strategy") ? ToLowerAscii(args.Get("strategy")) : "maxfanout";
    if (strategy == "basic") {
      options.strategy = SelectionStrategy::kBasic;
    } else if (strategy == "minchoice") {
      options.strategy = SelectionStrategy::kMinChoice;
    } else if (strategy == "maxfanout") {
      options.strategy = SelectionStrategy::kMaxFanOut;
    } else {
      return Fail("unknown --strategy '" + strategy + "'");
    }
    options.incremental = args.Has("apply-delta");
    auto result = RunDiva(*relation, constraints, options);
    if (!result.ok()) return Fail(result.status().ToString());
    if (args.Has("apply-delta")) {
      std::ifstream delta_file(args.Get("apply-delta"));
      if (!delta_file) {
        return Fail("cannot open delta file '" + args.Get("apply-delta") + "'");
      }
      std::ostringstream delta_text;
      delta_text << delta_file.rdbuf();
      auto delta = ParseDeltaFile(delta_text.str());
      if (!delta.ok()) return Fail(delta.status().ToString());
      if (result->snapshot == nullptr) {
        return Fail(
            "the prior run captured no reusable snapshot (generalized or "
            "degraded runs cannot replay deltas)");
      }
      auto replayed = ApplyDelta(*result->snapshot, *delta, options);
      if (!replayed.ok()) return Fail(replayed.status().ToString());
      std::fprintf(stderr, "applied delta: -%zu +%zu rows\n",
                   delta->RowsDeleted(), delta->inserted.size());
      result = std::move(replayed);
    }
    if (args.Has("json")) {
      std::printf("%s\n", ReportToJson(result->report).c_str());
    } else {
      PrintReport(result->report);
    }
    output = std::move(result->relation);
  } else {
    DivaOptions baseline_options;
    baseline_options.baseline = baselines.at(algorithm);
    baseline_options.anonymizer.seed = seed;
    auto result = Anonymize(MakeBaselineAnonymizer(baseline_options).get(),
                            *relation, static_cast<size_t>(*k));
    if (!result.ok()) return Fail(result.status().ToString());
    output = std::move(result).value();
  }

  if (tracing) {
    trace::Disable();
    Status written = trace::WriteChromeTrace(args.Get("trace-out"));
    if (!written.ok()) return Fail(written.ToString());
    std::fprintf(stderr, "wrote trace %s (%llu event(s) dropped)\n",
                 args.Get("trace-out").c_str(),
                 static_cast<unsigned long long>(trace::DroppedEvents()));
  }

  if (!IsKAnonymous(output, static_cast<size_t>(*k))) {
    return Fail("internal: output is not k-anonymous");
  }
  if (Interrupted()) {
    std::fprintf(stderr,
                 "interrupted: flushing the best-effort (still k-anonymous) "
                 "result\n");
  }
  PrintQuality(output, static_cast<size_t>(*k), constraints);

  if (args.Has("output")) {
    Status written = WriteCsvFile(output, args.Get("output"));
    if (!written.ok()) return Fail(written.ToString());
    std::printf("wrote %s\n", args.Get("output").c_str());
  } else {
    std::ostringstream buffer;
    DIVA_CHECK(WriteCsv(output, buffer).ok());
    std::fputs(buffer.str().c_str(), stdout);
  }
  return 0;
}
