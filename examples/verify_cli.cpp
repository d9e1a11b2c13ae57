// verify_cli — audits a published CSV against privacy and diversity
// requirements: k-anonymity, optional distinct l-diversity and
// t-closeness, and a diversity-constraint file. Prints a report and
// exits non-zero when any requested property fails — the receiving
// party's side of the (k, Sigma)-anonymization contract.
//
// With --original the full output auditor (verify/auditor.h) also
// re-checks the suppression-only containment R ⊑ R* and the ★
// bookkeeping against the pre-anonymization relation. Give it the
// --taxonomy files the producer anonymized with: a cell recoded to a
// taxonomy ancestor then counts as generalized, not as an edit.
//
// Usage:
//   verify_cli --input anonymized.csv --schema schema.txt --k 10
//       [--l 3] [--t 0.4] [--constraints sigma.txt]
//       [--original raw.csv] [--taxonomy ATTR=taxonomy.txt]...
//       [--expected-stars N] [--threads N] [--deadline-ms N]
//       [--trace-out trace.json]
//   verify_cli --list-failpoints
//
// An unknown flag or a flag without its value exits 2 before anything
// is read.
//
// --list-failpoints prints every fault-injection site compiled into the
// library (one per line) and exits — the names DIVA_FAILPOINTS accepts.
//
// --trace-out FILE enables span tracing for the verification run and
// writes Chrome-trace JSON (CSV reads, audit sub-checks, parallel loops);
// open in ui.perfetto.dev.
//
// --threads N sets the verification pool width (0 = one per hardware
// core); it overrides DIVA_THREADS and never changes any verdict, only
// how fast the scans run.
//
// --deadline-ms N bounds the total wall time. The deadline is polled
// between checks; every check that ran reports normally, the rest are
// skipped, and the process exits 3 ("verification incomplete") — never
// a false PASS or FAIL for a check that did not run. 0 (the default)
// means no deadline.

#include <cstdio>
#include <string>

#include "anon/privacy.h"
#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "constraint/parser.h"
#include "examples/example_util.h"
#include "metrics/metrics.h"
#include "relation/csv.h"
#include "relation/qi_groups.h"
#include "relation/schema.h"
#include "verify/auditor.h"

namespace {

using namespace diva;            // NOLINT: example brevity
using namespace diva::examples;  // NOLINT

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // ^C mid-verification skips remaining checks and exits 3 (incomplete)
  // with everything already checked flushed; a dead pager is a write
  // error, not SIGPIPE.
  InstallSignalHygiene();
  auto parsed_args = Flags::Parse(
      argc, argv,
      {"input", "schema", "k", "l", "t", "constraints", "original",
       "taxonomy", "expected-stars", "threads", "deadline-ms", "trace-out"},
      {"list-failpoints"});
  if (!parsed_args.ok()) return Fail(parsed_args.status().message());
  const Flags args = std::move(parsed_args).value();
  if (args.Has("list-failpoints")) {
    // The live fault-injection site table, for composing
    // DIVA_FAILPOINTS specs (misspelled sites are rejected at parse).
    for (const std::string& name : failpoint::KnownFailpoints()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (!args.Has("input") || !args.Has("schema") || !args.Has("k")) {
    return Fail("--input, --schema and --k are required");
  }

  // Width and tracing go first, so both CSV reads parse at the
  // requested width and show up in the trace.
  if (args.Has("threads")) {
    auto threads = ParseInt64(args.Get("threads"));
    if (!threads.ok() || *threads < 0) {
      return Fail("--threads must be a non-negative integer");
    }
    SetParallelThreads(static_cast<size_t>(*threads));
  } else {
    SetParallelThreads(EnvThreads());
  }
  const bool tracing = args.Has("trace-out");
  if (tracing) trace::Enable();

  auto schema = LoadSchemaFile(args.Get("schema"));
  if (!schema.ok()) return Fail(schema.status().ToString());
  auto generalization = LoadTaxonomies(**schema, args.GetAll("taxonomy"));
  if (!generalization.ok()) return Fail(generalization.status().message());
  auto relation = ReadCsvFile(args.Get("input"), *schema);
  if (!relation.ok()) return Fail(relation.status().ToString());
  auto k = ParseInt64(args.Get("k"));
  if (!k.ok() || *k < 1) return Fail("--k must be a positive integer");

  int64_t deadline_ms = 0;
  if (args.Has("deadline-ms")) {
    auto parsed = ParseInt64(args.Get("deadline-ms"));
    if (!parsed.ok() || *parsed < 0) {
      return Fail("--deadline-ms must be a non-negative integer");
    }
    deadline_ms = *parsed;
  }
  Deadline deadline = deadline_ms > 0 ? Deadline::AfterMillis(deadline_ms)
                                      : Deadline::Infinite();
  // Polled between checks: a check either runs to completion and reports
  // its true verdict, or is skipped entirely. Exit 3 = incomplete.
  bool incomplete = false;
  auto out_of_time = [&]() {
    const bool interrupted = Interrupted();
    if (!deadline.Expired() && !interrupted) return false;
    if (!incomplete) {
      std::printf("%s: remaining checks skipped\n",
                  interrupted ? "interrupted" : "deadline exceeded");
    }
    incomplete = true;
    return true;
  };

  bool all_ok = true;

  bool k_anonymous = IsKAnonymous(*relation, static_cast<size_t>(*k));
  std::printf("%-28s %s\n", ("k-anonymity (k=" + args.Get("k") + ")").c_str(),
              k_anonymous ? "PASS" : "FAIL");
  all_ok &= k_anonymous;

  if (args.Has("l") && !out_of_time()) {
    auto l = ParseInt64(args.Get("l"));
    if (!l.ok() || *l < 1) return Fail("--l must be a positive integer");
    bool diverse = IsDistinctLDiverse(*relation, static_cast<size_t>(*l));
    std::printf("%-28s %s\n", ("l-diversity (l=" + args.Get("l") + ")").c_str(),
                diverse ? "PASS" : "FAIL");
    all_ok &= diverse;
  }

  if (args.Has("t") && !out_of_time()) {
    auto t = ParseDouble(args.Get("t"));
    if (!t.ok() || *t < 0.0) return Fail("--t must be non-negative");
    double distance = TClosenessDistance(*relation);
    bool close = distance <= *t + 1e-12;
    std::printf("%-28s %s (measured t = %.4f)\n",
                ("t-closeness (t=" + args.Get("t") + ")").c_str(),
                close ? "PASS" : "FAIL", distance);
    all_ok &= close;
  }

  ConstraintSet sigma;
  if (args.Has("constraints") && !out_of_time()) {
    auto constraints = LoadConstraintSet(**schema, args.Get("constraints"));
    if (!constraints.ok()) return Fail(constraints.status().ToString());
    sigma = *constraints;
    const std::vector<size_t> counts =
        CountAllOccurrences(*relation, *constraints);
    std::vector<size_t> violated;
    for (size_t i = 0; i < counts.size(); ++i) {
      const DiversityConstraint& constraint = (*constraints)[i];
      if (counts[i] < constraint.lower() || counts[i] > constraint.upper()) {
        violated.push_back(i);
      }
    }
    std::printf("%-28s %s (%zu/%zu satisfied)\n", "diversity constraints",
                violated.empty() ? "PASS" : "FAIL",
                constraints->size() - violated.size(), constraints->size());
    for (size_t index : violated) {
      std::printf("    violated: %s (count %zu)\n",
                  (*constraints)[index].ToString().c_str(), counts[index]);
    }
    all_ok &= violated.empty();
  }

  if (args.Has("original") && !out_of_time()) {
    auto original = ReadCsvFile(args.Get("original"), *schema);
    if (!original.ok()) return Fail(original.status().ToString());
    AuditOptions audit_options;
    audit_options.generalization = *generalization;
    if (args.Has("expected-stars")) {
      auto expected = ParseInt64(args.Get("expected-stars"));
      if (!expected.ok() || *expected < 0) {
        return Fail("--expected-stars must be a non-negative integer");
      }
      audit_options.expected_added_stars = static_cast<size_t>(*expected);
    }
    auto audit = AuditAnonymization(*original, *relation,
                                    static_cast<size_t>(*k), sigma,
                                    audit_options);
    if (!audit.ok()) return Fail(audit.status().ToString());
    std::printf("%-28s %s\n", "output audit",
                audit->ok() ? "PASS" : "FAIL");
    std::printf("%s\n", audit->ToString().c_str());
    all_ok &= audit->ok();
  }

  std::printf("%-28s %.1f%% of QI cells suppressed, disc. accuracy %.3f\n",
              "information loss", 100.0 * SuppressionRatio(*relation),
              DiscernibilityAccuracy(*relation, static_cast<size_t>(*k)));

  if (tracing) {
    trace::Disable();
    Status written = trace::WriteChromeTrace(args.Get("trace-out"));
    if (!written.ok()) return Fail(written.ToString());
    std::fprintf(stderr, "wrote trace %s\n", args.Get("trace-out").c_str());
  }

  // An incomplete verification must not look like a verdict: checks that
  // ran reported honestly, but the contract as a whole is unconfirmed.
  if (incomplete) return 3;
  return all_ok ? 0 : 1;
}
