#ifndef DIVA_EXAMPLES_EXAMPLE_UTIL_H_
#define DIVA_EXAMPLES_EXAMPLE_UTIL_H_

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/string_util.h"
#include "core/diva.h"
#include "hierarchy/generalize.h"
#include "metrics/metrics.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace diva {
namespace examples {

/// ------------------------------------------------------------------
/// Signal hygiene shared by the CLIs and daemons.
///
/// SIGPIPE: a peer (pager, socket, downstream pipe) hanging up must
/// surface as a write error Status, not kill the process mid-report.
///
/// SIGINT: first ^C trips InterruptToken() — a manual CancellationToken
/// the tool threads through DivaOptions::cancel or polls between steps —
/// so the run degrades through the anytime path and the tool can still
/// flush whatever partial report it has. A second ^C falls back to the
/// default disposition (immediate kill) so a wedged tool stays killable.

/// The process-wide interrupt token (trips on the first SIGINT).
inline CancellationToken& InterruptToken() {
  static CancellationToken* token =
      new CancellationToken(CancellationToken::Manual());
  return *token;
}

/// True once SIGINT was received.
inline std::atomic<bool>& InterruptedFlag() {
  static std::atomic<bool> interrupted{false};
  return interrupted;
}

inline bool Interrupted() {
  return InterruptedFlag().load(std::memory_order_relaxed);
}

namespace internal {
/// Async-signal-safe: two relaxed atomic stores and a sigaction reset.
inline void HandleInterrupt(int) {
  InterruptedFlag().store(true, std::memory_order_relaxed);
  InterruptToken().RequestCancel();
  std::signal(SIGINT, SIG_DFL);  // second ^C kills for real
}
}  // namespace internal

/// Installs the handlers above. Call once at the top of main(); the
/// token and flag must be touched once beforehand so their lazy
/// construction never races the first signal.
inline void InstallSignalHygiene() {
  (void)InterruptToken();
  (void)Interrupted();
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, internal::HandleInterrupt);
}

/// ------------------------------------------------------------------
/// Command lines. A flag that takes a value is given as "--name value"
/// or "--name=value", a switch as a bare "--name". Parse rejects a
/// positional argument, an unknown flag, a flag without its value and a
/// switch given a value, so a typo stops the tool before it does any
/// work instead of running it on a default.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv,
                             const std::set<std::string>& valued,
                             const std::set<std::string>& switches) {
    Flags flags;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        return Status::InvalidArgument("unexpected argument " + arg);
      }
      size_t eq = arg.find('=');
      std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
      if (switches.count(name)) {
        if (eq != std::string::npos) {
          return Status::InvalidArgument("--" + name + " takes no value");
        }
        flags.values_[name].emplace_back();
      } else if (!valued.count(name)) {
        return Status::InvalidArgument("unknown flag --" + name);
      } else if (eq != std::string::npos) {
        flags.values_[name].push_back(arg.substr(eq + 1));
      } else if (i + 1 < argc) {
        flags.values_[name].emplace_back(argv[++i]);
      } else {
        return Status::InvalidArgument("--" + name + " needs a value");
      }
    }
    return flags;
  }

  bool Has(const std::string& name) const { return values_.count(name) != 0; }

  /// The flag's last value ("" when absent or a switch).
  std::string Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? std::string() : it->second.back();
  }

  /// Every value the flag was given, in command-line order.
  std::vector<std::string> GetAll(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? std::vector<std::string>() : it->second;
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

/// Loads a schema file: one attribute per line, "NAME,role,kind" with
/// role id|qi|sensitive (or identifier|quasi-identifier) and kind
/// cat|num (or categorical|numeric); blank lines and '#' comments are
/// skipped. An unknown role or kind is an error naming its line.
inline Result<std::shared_ptr<const Schema>> LoadSchemaFile(
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
    const std::string where = "schema line " + std::to_string(line_number);
    auto parts = Split(trimmed, ',');
    if (parts.size() != 3) {
      return Status::InvalidArgument(where + ": expected NAME,role,kind");
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
      return Status::InvalidArgument(where + ": unknown role '" + role + "'");
    }
    if (kind == "num" || kind == "numeric") {
      attribute.kind = AttributeKind::kNumeric;
    } else if (kind == "cat" || kind == "categorical") {
      attribute.kind = AttributeKind::kCategorical;
    } else {
      return Status::InvalidArgument(where + ": unknown kind '" + kind + "'");
    }
    attributes.push_back(std::move(attribute));
  }
  return Schema::Make(std::move(attributes));
}

/// Loads taxonomies given as "ATTR=path" specs (the CLIs' --taxonomy
/// flag) into one GeneralizationContext; a later spec for the same
/// attribute replaces an earlier one. Returns null when `specs` is empty.
/// A malformed spec, an unknown attribute, an unreadable file or a bad
/// taxonomy is an error naming it.
inline Result<std::shared_ptr<GeneralizationContext>> LoadTaxonomies(
    const Schema& schema, const std::vector<std::string>& specs) {
  if (specs.empty()) return std::shared_ptr<GeneralizationContext>();
  auto generalization =
      std::make_shared<GeneralizationContext>(schema.NumAttributes());
  for (const std::string& spec : specs) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("--taxonomy expects ATTR=path, got '" +
                                     spec + "'");
    }
    const std::string name = spec.substr(0, eq);
    const std::string path = spec.substr(eq + 1);
    auto attr = schema.IndexOf(name);
    if (!attr.has_value()) {
      return Status::InvalidArgument(
          "--taxonomy references unknown attribute '" + name + "'");
    }
    std::ifstream file(path);
    if (!file) {
      return Status::IoError("cannot open taxonomy file '" + path + "'");
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    auto taxonomy = Taxonomy::FromText(buffer.str());
    if (!taxonomy.ok()) {
      return Status::InvalidArgument("taxonomy file '" + path +
                                     "': " + taxonomy.status().message());
    }
    generalization->SetTaxonomy(*attr, std::move(taxonomy).value());
  }
  return generalization;
}

/// Prints a relation as an aligned text table (up to `max_rows` rows).
inline void PrintRelation(const Relation& relation, size_t max_rows = 20) {
  size_t rows = std::min<size_t>(relation.NumRows(), max_rows);
  size_t cols = relation.NumAttributes();

  std::vector<size_t> widths(cols);
  for (size_t c = 0; c < cols; ++c) {
    widths[c] = relation.schema().attribute(c).name.size();
    for (RowId r = 0; r < rows; ++r) {
      widths[c] = std::max(widths[c], relation.ValueString(r, c).size());
    }
  }
  for (size_t c = 0; c < cols; ++c) {
    std::printf("%-*s  ", static_cast<int>(widths[c]),
                relation.schema().attribute(c).name.c_str());
  }
  std::printf("\n");
  for (size_t c = 0; c < cols; ++c) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (RowId r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]),
                  relation.ValueString(r, c).c_str());
    }
    std::printf("\n");
  }
  if (relation.NumRows() > rows) {
    std::printf("... (%zu more rows)\n", relation.NumRows() - rows);
  }
}

/// Prints a one-line summary of a DIVA run.
inline void PrintReport(const DivaReport& report) {
  std::printf(
      "constraints: %zu/%zu colored%s | steps %llu, backtracks %llu | "
      "|S_Sigma| = %zu rows | repair stars %zu | %.3fs total\n",
      report.colored_constraints, report.total_constraints,
      report.budget_exhausted ? " (budget exhausted)" : "",
      static_cast<unsigned long long>(report.coloring_steps),
      static_cast<unsigned long long>(report.backtracks), report.sigma_rows,
      report.repair_cells, report.total_seconds);
  if (report.deadline_exceeded) {
    std::printf(
        "deadline exceeded: best-effort output%s%s%s\n",
        report.baseline_degraded ? " | baseline fell back to Mondrian" : "",
        report.integrate_skipped ? " | integrate repair skipped" : "",
        report.privacy_truncated ? " | privacy merging truncated" : "");
  }
}

/// Prints the standard quality metrics of an anonymized relation.
inline void PrintQuality(const Relation& relation, size_t k,
                         const ConstraintSet& constraints) {
  std::printf(
      "stars: %zu (%.1f%% of QI cells) | discernibility accuracy %.3f | "
      "constraints satisfied %.0f%% | overall accuracy %.3f\n",
      CountStars(relation), 100.0 * SuppressionRatio(relation),
      DiscernibilityAccuracy(relation, k),
      100.0 * SatisfiedFraction(relation, constraints),
      OverallAccuracy(relation, k, constraints));
}

}  // namespace examples
}  // namespace diva

#endif  // DIVA_EXAMPLES_EXAMPLE_UTIL_H_
