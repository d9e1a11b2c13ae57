#include "common/failpoint.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace diva {
namespace failpoint {

namespace {

/// Every instrumented site, kept sorted. A DIVA_FAIL call whose name is
/// missing here, or a stale entry with no matching call, fails
/// tests/fault_injection_test.cc — the table and the code cannot drift.
const char* const kKnownSites[] = {
    "audit.run",            // verify/auditor.cc: contract re-check
    "csv.open.read",        // relation/csv.cc: ReadCsvFile open
    "csv.open.write",       // relation/csv.cc: WriteCsvFile open
    "csv.read.record",      // relation/csv.cc: per parsed record
    "csv.write.row",        // relation/csv.cc: per written row
    // delta.* sites fire on the incremental re-anonymization path
    // (core/incremental.cc); a mid-delta fault surfaces a clean Status
    // and never a partially merged output.
    "delta.apply",          // core/incremental.cc: before delta validation
    "delta.merge",          // core/incremental.cc: before result hand-off
    "delta.recolor",        // core/incremental.cc: before the re-color run
    "diva.coloring.begin",  // core/diva.cc: before the coloring search
    "diva.graph.build",     // core/diva.cc: constraint-graph construction
    "diva.integrate",       // core/diva.cc: upper-bound repair phase
    "diva.publish",         // core/diva.cc: final result hand-off
    "diva.suppress",        // core/diva.cc: S_Sigma suppression phase
    "kmember.build",        // anon/kmember.cc: baseline clustering
    "mondrian.build",       // anon/mondrian.cc: baseline clustering
    "oka.build",            // anon/oka.cc: baseline clustering
    "privacy.ldiversity",   // anon/privacy.cc: l-diversity merging
    "privacy.tcloseness",   // anon/privacy.cc: t-closeness merging
    "relation.append_row",  // relation/relation.cc: row ingestion
    // serve/ sites: swept by the chaos suite in tests/serve_chaos_test.cc
    // (the pipeline sweep in tests/fault_injection_test.cc skips the
    // "serve." prefix — a pipeline run never opens a socket).
    "serve.accept",         // serve/server.cc: accepted connection intake
    "serve.admission",      // serve/server.cc: admission-control decision
    "serve.enqueue",        // serve/server.cc: bounded queue hand-off
    "serve.execute",        // serve/server.cc: before the pipeline run
    "serve.frame.read",     // serve/protocol.cc: request frame read
    "serve.publish",        // serve/snapshot.cc: snapshot publication
    "serve.request.parse",  // serve/protocol.cc: request decoding
    "serve.respond",        // serve/server.cc: response frame write
    // shard.* sites fire on the component-sharded coloring path
    // (core/shard.cc); shard.run/shard.merge need a multi-component
    // instance, which the pipeline sweep's disjoint-target run provides.
    "shard.merge",          // core/shard.cc: outcome merge hand-off
    "shard.partition",      // core/diva.cc: component plan computation
    "shard.run",            // core/shard.cc: per-shard coloring task
};

struct Site {
  uint64_t hits = 0;
  bool armed = false;
  bool fired = false;
  StatusCode code = StatusCode::kInternal;
  uint64_t trigger_hit = 1;
};

struct Registry {
  Mutex mutex;
  std::unordered_map<std::string, Site> sites DIVA_GUARDED_BY(mutex);
  bool counting DIVA_GUARDED_BY(mutex) = false;
  bool env_parsed DIVA_GUARDED_BY(mutex) = false;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;  // leaked: outlives every site
  return *registry;
}

/// Number of armed sites plus the counting flag — the fast-path gate.
/// While zero, Check() is a single relaxed load and an immediate return.
std::atomic<uint32_t> g_active{0};

/// Lowercases and strips '-'/'_' so "io-error", "IoError" and "io_error"
/// compare equal.
std::string NormalizeCode(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '-' || c == '_') continue;
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

bool ParseStatusCode(const std::string& text, StatusCode* code) {
  static const std::pair<const char*, StatusCode> kCodes[] = {
      {"invalidargument", StatusCode::kInvalidArgument},
      {"invalid", StatusCode::kInvalidArgument},
      {"notfound", StatusCode::kNotFound},
      {"infeasible", StatusCode::kInfeasible},
      {"internal", StatusCode::kInternal},
      {"ioerror", StatusCode::kIoError},
      {"io", StatusCode::kIoError},
      {"deadlineexceeded", StatusCode::kDeadlineExceeded},
      {"unavailable", StatusCode::kUnavailable},
  };
  std::string normalized = NormalizeCode(text);
  for (const auto& [name, value] : kCodes) {
    if (normalized == name) {
      *code = value;
      return true;
    }
  }
  return false;
}

/// Prefix every spec-parse error with the 1-based entry index, its column
/// in the spec string, and the offending entry text, so a chaos run's
/// DIVA_FAILPOINTS typo points at the exact field that is wrong.
Status SpecEntryError(size_t entry_index, size_t column,
                      const std::string& entry, const std::string& detail) {
  return Status::InvalidArgument(
      "DIVA_FAILPOINTS entry " + std::to_string(entry_index) + " (col " +
      std::to_string(column + 1) + ", '" + entry + "'): " + detail +
      "; expected name=code[@hit:N]");
}

/// Arms every entry of `spec` into an already-locked registry. The whole
/// spec is validated before anything is armed: a half-armed chaos spec
/// would silently test nothing, so a malformed entry arms none of them.
Status ArmFromSpecLocked(Registry& registry, const std::string& spec)
    DIVA_REQUIRES(registry.mutex) {
  struct Parsed {
    std::string name;
    StatusCode code;
    uint64_t trigger_hit;
  };
  std::vector<Parsed> parsed;
  size_t pos = 0;
  size_t entry_index = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const size_t column = pos;
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    ++entry_index;
    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return SpecEntryError(entry_index, column, entry,
                            "missing '=' between name and code");
    }
    if (eq == 0) {
      return SpecEntryError(entry_index, column, entry,
                            "empty site name before '='");
    }
    std::string name = entry.substr(0, eq);
    std::string code_text = entry.substr(eq + 1);
    uint64_t trigger_hit = 1;
    size_t at = code_text.find('@');
    if (at != std::string::npos) {
      std::string trigger = code_text.substr(at + 1);
      code_text = code_text.substr(0, at);
      if (trigger.rfind("hit:", 0) != 0) {
        return SpecEntryError(entry_index, column, entry,
                              "trigger '" + trigger +
                                  "' is not of the form hit:N");
      }
      char* end = nullptr;
      unsigned long long n = std::strtoull(trigger.c_str() + 4, &end, 10);
      if (end == trigger.c_str() + 4 || *end != '\0' || n == 0) {
        return SpecEntryError(entry_index, column, entry,
                              "hit count '" + trigger.substr(4) +
                                  "' must be a positive integer");
      }
      trigger_hit = static_cast<uint64_t>(n);
    }
    if (code_text.empty()) {
      return SpecEntryError(entry_index, column, entry,
                            "empty status code after '='");
    }
    StatusCode code;
    if (!ParseStatusCode(code_text, &code)) {
      return SpecEntryError(entry_index, column, entry,
                            "unknown status code '" + code_text + "'");
    }
    // A misspelled site name would arm a failpoint nothing ever hits —
    // the chaos run would silently test nothing. Spec-armed names must
    // exist (the programmatic Arm() API stays unchecked for tests).
    if (!std::binary_search(std::begin(kKnownSites), std::end(kKnownSites),
                            name,
                            [](const auto& a, const auto& b) {
                              return std::string_view(a) <
                                     std::string_view(b);
                            })) {
      return SpecEntryError(entry_index, column, entry,
                            "unknown failpoint site '" + name +
                                "' (list live sites with "
                                "verify_cli --list-failpoints)");
    }
    parsed.push_back({std::move(name), code, trigger_hit});
  }
  for (Parsed& p : parsed) {
    Site& site = registry.sites[p.name];
    site.armed = true;
    site.fired = false;
    site.hits = 0;
    site.code = p.code;
    site.trigger_hit = p.trigger_hit;
    g_active.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

/// Parses DIVA_FAILPOINTS once per Reset. A malformed spec aborts: a
/// fault-injection run with a half-armed spec would silently test
/// nothing.
void MaybeArmFromEnvLocked(Registry& registry)
    DIVA_REQUIRES(registry.mutex) {
  if (registry.env_parsed) return;
  registry.env_parsed = true;
  const char* env = std::getenv("DIVA_FAILPOINTS");
  if (env == nullptr || *env == '\0') return;
  Status armed = ArmFromSpecLocked(registry, env);
  if (!armed.ok()) {
    std::fprintf(stderr, "FATAL: DIVA_FAILPOINTS: %s\n",
                 armed.ToString().c_str());
    std::abort();
  }
}

}  // namespace

bool Active() {
  // One-time lazy DIVA_FAILPOINTS parse (thread-safe magic static).
  static const bool env_initialized = [] {
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mutex);
    MaybeArmFromEnvLocked(registry);
    return true;
  }();
  (void)env_initialized;
  return g_active.load(std::memory_order_relaxed) != 0;
}

Status Check(const char* name) {
  // Fast path: nothing armed, no counting — one relaxed load.
  if (!Active()) return Status::OK();
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  Site& site = registry.sites[name];
  ++site.hits;
  if (site.armed && !site.fired && site.hits == site.trigger_hit) {
    site.fired = true;
    return Status(site.code, std::string("failpoint '") + name +
                                 "' fired (hit " +
                                 std::to_string(site.hits) + ")");
  }
  return Status::OK();
}

void Arm(const std::string& name, StatusCode code, uint64_t trigger_hit) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  Site& site = registry.sites[name];
  site.armed = true;
  site.fired = false;
  site.hits = 0;
  site.code = code;
  site.trigger_hit = trigger_hit == 0 ? 1 : trigger_hit;
  g_active.fetch_add(1, std::memory_order_relaxed);
}

Status ArmFromSpec(const std::string& spec) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  return ArmFromSpecLocked(registry, spec);
}

void Reset() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  registry.sites.clear();
  registry.counting = false;
  registry.env_parsed = true;  // an explicit Reset overrides the env
  g_active.store(0, std::memory_order_relaxed);
}

uint64_t HitCount(const std::string& name) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  auto it = registry.sites.find(name);
  return it == registry.sites.end() ? 0 : it->second.hits;
}

void SetCounting(bool enabled) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  if (registry.counting == enabled) return;
  registry.counting = enabled;
  if (enabled) {
    g_active.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_active.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::vector<std::string> HitSites() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  std::vector<std::string> names;
  for (const auto& [name, site] : registry.sites) {
    if (site.hits > 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> KnownFailpoints() {
  std::vector<std::string> names(std::begin(kKnownSites),
                                 std::end(kKnownSites));
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace failpoint
}  // namespace diva
