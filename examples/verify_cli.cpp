// verify_cli — audits a published CSV against privacy and diversity
// requirements: k-anonymity, optional distinct l-diversity and
// t-closeness, and a diversity-constraint file. Prints a report and
// exits non-zero when any requested property fails — the receiving
// party's side of the (k, Sigma)-anonymization contract.
//
// With --original the full output auditor (verify/auditor.h) also
// re-checks the suppression-only containment R ⊑ R* and the ★
// bookkeeping against the pre-anonymization relation.
//
// Usage:
//   verify_cli --input anonymized.csv --schema schema.txt --k 10
//       [--l 3] [--t 0.4] [--constraints sigma.txt]
//       [--original raw.csv] [--expected-stars N] [--threads N]
//       [--deadline-ms N] [--trace-out trace.json]
//   verify_cli --list-failpoints
//
// --list-failpoints prints every fault-injection site compiled into the
// library (one per line) and exits — the names DIVA_FAILPOINTS accepts.
//
// --trace-out FILE enables span tracing for the verification run and
// writes Chrome-trace JSON (audit sub-checks, pool chunks); open in
// ui.perfetto.dev.
//
// --threads N sets the verification pool width (0 = one per hardware
// core); it overrides DIVA_THREADS and never changes any verdict, only
// how fast the scans run.
//
// --deadline-ms N bounds the total wall time. The deadline is polled
// between checks; every check that ran reports normally, the rest are
// skipped, and the process exits 3 ("verification incomplete") — never
// a false PASS or FAIL for a check that did not run. Overrides the
// DIVA_DEADLINE_MS environment knob.

#include <cstdio>
#include <fstream>
#include <map>
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

// Same schema file format as anonymize_cli.
Result<std::shared_ptr<const Schema>> LoadSchemaFile(const std::string& path);

}  // namespace

int main(int argc, char** argv) {
  // ^C mid-verification skips remaining checks and exits 3 (incomplete)
  // with everything already checked flushed; a dead pager is a write
  // error, not SIGPIPE.
  InstallSignalHygiene();
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-failpoints") {
      // The live fault-injection site table, for composing
      // DIVA_FAILPOINTS specs (misspelled sites are rejected at parse).
      for (const std::string& name : failpoint::KnownFailpoints()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (!StartsWith(arg, "--")) return Fail("unexpected argument " + arg);
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      // --key=value form (e.g. --trace-out=t.json).
      args[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[arg.substr(2)] = argv[++i];
    } else {
      return Fail("missing value for argument " + arg);
    }
  }
  if (!args.count("input") || !args.count("schema") || !args.count("k")) {
    return Fail("--input, --schema and --k are required");
  }

  auto schema = LoadSchemaFile(args["schema"]);
  if (!schema.ok()) return Fail(schema.status().ToString());
  auto relation = ReadCsvFile(args["input"], *schema);
  if (!relation.ok()) return Fail(relation.status().ToString());
  auto k = ParseInt64(args["k"]);
  if (!k.ok() || *k < 1) return Fail("--k must be a positive integer");

  if (args.count("threads")) {
    auto threads = ParseInt64(args["threads"]);
    if (!threads.ok() || *threads < 0) {
      return Fail("--threads must be a non-negative integer");
    }
    SetParallelThreads(static_cast<size_t>(*threads));
  } else {
    SetParallelThreads(EnvThreads());
  }

  int64_t deadline_ms = EnvDeadlineMillis();
  if (args.count("deadline-ms")) {
    auto parsed = ParseInt64(args["deadline-ms"]);
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

  const bool tracing = args.count("trace-out") != 0;
  if (tracing) trace::Enable();

  bool all_ok = true;

  bool k_anonymous = IsKAnonymous(*relation, static_cast<size_t>(*k));
  std::printf("%-28s %s\n", ("k-anonymity (k=" + args["k"] + ")").c_str(),
              k_anonymous ? "PASS" : "FAIL");
  all_ok &= k_anonymous;

  if (args.count("l") && !out_of_time()) {
    auto l = ParseInt64(args["l"]);
    if (!l.ok() || *l < 1) return Fail("--l must be a positive integer");
    bool diverse = IsDistinctLDiverse(*relation, static_cast<size_t>(*l));
    std::printf("%-28s %s\n", ("l-diversity (l=" + args["l"] + ")").c_str(),
                diverse ? "PASS" : "FAIL");
    all_ok &= diverse;
  }

  if (args.count("t") && !out_of_time()) {
    auto t = ParseDouble(args["t"]);
    if (!t.ok() || *t < 0.0) return Fail("--t must be non-negative");
    double distance = TClosenessDistance(*relation);
    bool close = distance <= *t + 1e-12;
    std::printf("%-28s %s (measured t = %.4f)\n",
                ("t-closeness (t=" + args["t"] + ")").c_str(),
                close ? "PASS" : "FAIL", distance);
    all_ok &= close;
  }

  ConstraintSet sigma;
  if (args.count("constraints") && !out_of_time()) {
    auto constraints = LoadConstraintSet(**schema, args["constraints"]);
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

  if (args.count("original") && !out_of_time()) {
    auto original = ReadCsvFile(args["original"], *schema);
    if (!original.ok()) return Fail(original.status().ToString());
    AuditOptions audit_options;
    if (args.count("expected-stars")) {
      auto expected = ParseInt64(args["expected-stars"]);
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
    Status written = trace::WriteChromeTrace(args["trace-out"]);
    if (!written.ok()) return Fail(written.ToString());
    std::fprintf(stderr, "wrote trace %s\n", args["trace-out"].c_str());
  }

  // An incomplete verification must not look like a verdict: checks that
  // ran reported honestly, but the contract as a whole is unconfirmed.
  if (incomplete) return 3;
  return all_ok ? 0 : 1;
}

namespace {

Result<std::shared_ptr<const Schema>> LoadSchemaFile(
    const std::string& path) {
  std::ifstream input(path);
  if (!input) return Status::IoError("cannot open schema file: " + path);
  std::vector<Attribute> attributes;
  std::string line;
  size_t line_number = 0;
  while (std::getline(input, line)) {
    ++line_number;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    auto parts = Split(trimmed, ',');
    if (parts.size() != 3) {
      return Status::InvalidArgument("schema line " +
                                     std::to_string(line_number) +
                                     ": expected NAME,role,kind");
    }
    Attribute attribute;
    attribute.name = std::string(Trim(parts[0]));
    std::string role = ToLowerAscii(Trim(parts[1]));
    std::string kind = ToLowerAscii(Trim(parts[2]));
    if (role == "id" || role == "identifier") {
      attribute.role = AttributeRole::kIdentifier;
    } else if (role == "qi" || role == "quasi-identifier") {
      attribute.role = AttributeRole::kQuasiIdentifier;
    } else if (role == "sensitive") {
      attribute.role = AttributeRole::kSensitive;
    } else {
      return Status::InvalidArgument("unknown role '" + role + "'");
    }
    attribute.kind = (kind == "num" || kind == "numeric")
                         ? AttributeKind::kNumeric
                         : AttributeKind::kCategorical;
    attributes.push_back(std::move(attribute));
  }
  return Schema::Make(std::move(attributes));
}

}  // namespace
