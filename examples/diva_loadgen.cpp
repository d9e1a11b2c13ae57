// diva_loadgen — replay driver for diva_serverd: a fleet of client
// workers fires anonymize/verify/fetch traffic at a server with jittered
// exponential backoff and a Finagle-style retry budget (common/
// backoff.h), then reports latency percentiles, shed/degraded rates and
// the crash-tolerance invariants as a bench_diff-compatible JSON report.
//
// Usage:
//   diva_loadgen [--scenario steady|overload|both] [--clients N]
//       [--requests N] [--rows N] [--k N] [--deadline-ms N] [--seed N]
//       [--sessions N] [--queue N] [--json out.json]
//       [--connect HOST:PORT]
//
// Scenarios (in-process server unless --connect):
//   steady    offered concurrency == session workers; nothing sheds.
//   overload  4x the server's admission capacity (sessions + queue) with
//             tight per-request deadlines; admission control sheds, the
//             backoff ladder spreads retries, the retry budget stops the
//             herd from amplifying, and every response that does come
//             back is still audited.
//   both      run steady then overload (the BENCH_serve.json shapes).
//
// After each in-process scenario every retained snapshot is re-audited
// against the base it was produced from (verify/auditor.h), whatever its
// `audited` flag says.
//
// The JSON report maps each scenario to flat metrics. Deterministic,
// CI-gated keys: requests, unaccounted (= requests that ended in no
// terminal outcome, always 0), failed_requests (non-retryable error
// responses, always 0), leaked_inflight (server in-flight after Stop,
// always 0), unaudited_snapshots (always 0), reaudit_failures (retained
// snapshots failing the re-audit, always 0), protocol_errors.
// exec_-prefixed keys (shed counts, retries, budget denials) vary with
// scheduling and are never gated; *_ms / *_per_sec keys are timing.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "constraint/generator.h"
#include "datagen/profiles.h"
#include "examples/example_util.h"
#include "serve/client.h"
#include "serve/server.h"
#include "verify/auditor.h"

namespace {

using namespace diva;            // NOLINT: example brevity
using namespace diva::examples;  // NOLINT

int Fail(const std::string& message) {
  std::fprintf(stderr, "diva_loadgen: error: %s\n", message.c_str());
  return 1;
}

/// Interruptible sleep (the codebase's one timed wait primitive).
void SleepMs(double ms) {
  Mutex mutex;
  CondVar cv;
  MutexLock lock(mutex);
  cv.WaitFor(lock, ms / 1e3);
}

/// Outcome counts of one worker; merged under a lock at the end.
struct WorkerTally {
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t gave_up = 0;      // retries exhausted or budget denied
  uint64_t failed = 0;       // non-retryable error response
  uint64_t retries = 0;      // retry attempts actually sent
  uint64_t budget_denied = 0;
  uint64_t reconnects = 0;
  std::vector<double> latencies_ms;  // per successful logical request
  std::string first_error;           // first non-retryable error seen
};

struct ScenarioConfig {
  std::string name;
  size_t clients = 2;
  size_t requests_per_client = 20;  // logical requests per worker
  int64_t deadline_ms = -1;         // per-request deadline (-1 = none)
};

struct ScenarioResult {
  ScenarioConfig config;
  WorkerTally tally;              // merged across workers
  double wall_seconds = 0.0;
  serve::ServerStats server_stats;
  size_t leaked_inflight = 0;
  size_t unaudited_snapshots = 0;
  size_t reaudited_snapshots = 0;
  size_t reaudit_failures = 0;
  bool have_server_side = false;  // false when driving a remote server
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(values.size()));
  index = std::min(index, values.size() - 1);
  return values[index];
}

/// One worker: `requests` logical anonymize requests, each retried on
/// kUnavailable through its own jittered Backoff ladder, all workers
/// sharing one RetryBudget. Every third request verifies the snapshot it
/// just published (the audit-replay path).
WorkerTally RunWorker(const std::string& host, int port, size_t worker,
                      const ScenarioConfig& config, uint64_t seed,
                      RetryBudget* budget) {
  WorkerTally tally;
  BackoffOptions backoff_options;
  backoff_options.initial_ms = 5.0;
  backoff_options.max_ms = 250.0;
  backoff_options.max_retries = 6;
  Backoff backoff(backoff_options, seed + 0x9e3779b9u * (worker + 1));

  auto client = serve::Client::Connect(host, port);
  for (size_t r = 0; r < config.requests_per_client; ++r) {
    serve::Request request;
    request.verb = "anonymize";
    request.params["k"] = "4";
    request.params["seed"] = std::to_string(seed + r);
    if (config.deadline_ms >= 0) {
      request.params["deadline_ms"] = std::to_string(config.deadline_ms);
    }
    budget->RecordCall();
    backoff.Reset();
    StopWatch watch;
    bool settled = false;
    while (!settled) {
      if (!client.ok() || !client->connected()) {
        client = serve::Client::Connect(host, port);
        if (client.ok()) ++tally.reconnects;
      }
      Result<serve::Response> response =
          client.ok() ? client->Call(request)
                      : Result<serve::Response>(client.status());
      const bool unavailable =
          response.ok()
              ? (!response->ok && response->code == StatusCode::kUnavailable)
              : response.status().code() == StatusCode::kUnavailable;
      if (response.ok() && response->ok) {
        ++tally.ok;
        tally.latencies_ms.push_back(watch.ElapsedMillis());
        if (response->Field("degraded", "0") == "1") ++tally.degraded;
        // Replay the audit over the wire for a third of the publishes.
        if (r % 3 == 0) {
          serve::Request verify;
          verify.verb = "verify";
          verify.params["snapshot"] = response->Field("snapshot", "0");
          (void)client->Call(verify);  // best-effort; counted server-side
        }
        settled = true;
      } else if (unavailable) {
        // Shed (or shed-by-close). Retry iff both the per-request ladder
        // and the shared budget allow it; otherwise the request is
        // dropped on the floor by design — load shedding worked.
        if (!response.ok() && client.ok()) {
          // Connection-level failure: drop the client so the next
          // attempt reconnects instead of reusing a dead socket.
          client = Result<serve::Client>(response.status());
        }
        std::optional<double> delay = backoff.NextDelayMs();
        if (!delay.has_value()) {
          ++tally.gave_up;
          settled = true;
        } else if (!budget->TryWithdrawRetry()) {
          ++tally.budget_denied;
          ++tally.gave_up;
          settled = true;
        } else {
          ++tally.retries;
          SleepMs(*delay);
        }
      } else {
        ++tally.failed;
        if (tally.first_error.empty()) {
          tally.first_error = response.ok() ? response->ToStatus().ToString()
                                            : response.status().ToString();
        }
        settled = true;
      }
    }
  }
  return tally;
}

ScenarioResult RunScenario(const ScenarioConfig& config,
                           const std::string& connect_host, int connect_port,
                           const Relation& base,
                           const ConstraintSet& constraints,
                           const serve::ServerOptions& server_options,
                           uint64_t seed) {
  ScenarioResult result;
  result.config = config;

  std::unique_ptr<serve::Server> server;
  std::string host = connect_host;
  int port = connect_port;
  if (host.empty()) {
    server = std::make_unique<serve::Server>(base, constraints,
                                             server_options);
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "diva_loadgen: server start failed: %s\n",
                   started.ToString().c_str());
      return result;
    }
    host = server_options.host;
    port = server->port();
  }

  RetryBudget budget(/*deposit_per_call=*/0.25, /*initial_tokens=*/4.0,
                     /*max_tokens=*/32.0);
  Mutex merge_mutex;
  StopWatch watch;
  {
    TaskGroup workers(config.clients);
    std::vector<uint64_t> tickets;
    for (size_t w = 0; w < config.clients; ++w) {
      tickets.push_back(workers.Submit([&, w]() {
        WorkerTally tally = RunWorker(host, port, w, config, seed, &budget);
        MutexLock lock(merge_mutex);
        result.tally.ok += tally.ok;
        result.tally.degraded += tally.degraded;
        result.tally.gave_up += tally.gave_up;
        result.tally.failed += tally.failed;
        result.tally.retries += tally.retries;
        result.tally.budget_denied += tally.budget_denied;
        result.tally.reconnects += tally.reconnects;
        result.tally.latencies_ms.insert(result.tally.latencies_ms.end(),
                                         tally.latencies_ms.begin(),
                                         tally.latencies_ms.end());
        if (result.tally.first_error.empty()) {
          result.tally.first_error = tally.first_error;
        }
      }));
    }
    for (uint64_t ticket : tickets) workers.Wait(ticket);
  }
  result.wall_seconds = watch.ElapsedSeconds();

  if (server) {
    server->Stop();
    result.server_stats = server->stats();
    result.leaked_inflight = server->inflight();
    const serve::SnapshotStore& store = server->snapshots();
    for (uint64_t id = 1; id <= store.latest_id(); ++id) {
      auto snapshot = store.Find(id);
      if (snapshot == nullptr) continue;
      if (!snapshot->audited) ++result.unaudited_snapshots;
      // Independent of the flag: every retained snapshot is re-audited
      // against the base it was anonymized from.
      AuditOptions audit_options;
      audit_options.waived_constraints = snapshot->waived_constraints;
      auto audit = AuditAnonymization(
          snapshot->source != nullptr ? *snapshot->source : base,
          snapshot->relation, snapshot->k, constraints, audit_options);
      ++result.reaudited_snapshots;
      if (!audit.ok() || !audit->ok()) {
        ++result.reaudit_failures;
        std::fprintf(stderr,
                     "diva_loadgen: snapshot %llu failed re-audit: %s\n",
                     static_cast<unsigned long long>(id),
                     audit.ok() ? audit->ToString().c_str()
                                : audit.status().ToString().c_str());
      }
    }
    result.have_server_side = true;
  }
  return result;
}

void PrintScenario(const ScenarioResult& result) {
  const WorkerTally& t = result.tally;
  const uint64_t offered =
      result.config.clients * result.config.requests_per_client;
  std::printf(
      "%-9s clients=%zu offered=%llu ok=%llu gave_up=%llu failed=%llu | "
      "retries=%llu budget_denied=%llu degraded=%llu | "
      "p50=%.1fms p99=%.1fms | %.2fs (%.0f req/s)\n",
      result.config.name.c_str(), result.config.clients,
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(t.ok),
      static_cast<unsigned long long>(t.gave_up),
      static_cast<unsigned long long>(t.failed),
      static_cast<unsigned long long>(t.retries),
      static_cast<unsigned long long>(t.budget_denied),
      static_cast<unsigned long long>(t.degraded),
      Percentile(t.latencies_ms, 0.50), Percentile(t.latencies_ms, 0.99),
      result.wall_seconds,
      result.wall_seconds > 0.0
          ? static_cast<double>(t.ok) / result.wall_seconds
          : 0.0);
  if (!t.first_error.empty()) {
    std::printf("          first error: %s\n", t.first_error.c_str());
  }
  if (result.have_server_side) {
    const serve::ServerStats& s = result.server_stats;
    std::printf(
        "          server: requests=%llu shed=%llu degraded=%llu "
        "snapshots=%llu leaked=%zu unaudited=%zu "
        "reaudited=%zu reaudit_failures=%zu\n",
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.shed),
        static_cast<unsigned long long>(s.degraded),
        static_cast<unsigned long long>(s.snapshots_published),
        result.leaked_inflight, result.unaudited_snapshots,
        result.reaudited_snapshots, result.reaudit_failures);
  }
}

void AppendJson(std::string* out, const ScenarioResult& result) {
  const WorkerTally& t = result.tally;
  const uint64_t offered =
      result.config.clients * result.config.requests_per_client;
  const uint64_t settled = t.ok + t.gave_up + t.failed;
  char buffer[512];
  *out += "  \"" + result.config.name + "\": {\n";
  auto add = [&](const char* key, double value, bool integer) {
    if (integer) {
      std::snprintf(buffer, sizeof(buffer), "    \"%s\": %llu,\n", key,
                    static_cast<unsigned long long>(value));
    } else {
      std::snprintf(buffer, sizeof(buffer), "    \"%s\": %.4f,\n", key,
                    value);
    }
    *out += buffer;
  };
  // Deterministic, CI-gated invariants.
  add("requests", static_cast<double>(offered), true);
  add("unaccounted", static_cast<double>(offered - settled), true);
  add("failed_requests", static_cast<double>(t.failed), true);
  if (result.have_server_side) {
    add("leaked_inflight", static_cast<double>(result.leaked_inflight), true);
    add("unaudited_snapshots", static_cast<double>(result.unaudited_snapshots),
        true);
    add("reaudit_failures", static_cast<double>(result.reaudit_failures),
        true);
    add("protocol_errors",
        static_cast<double>(result.server_stats.protocol_errors), true);
  }
  // Scheduling-dependent (never gated).
  add("exec_ok", static_cast<double>(t.ok), true);
  add("exec_gave_up", static_cast<double>(t.gave_up), true);
  add("exec_retries", static_cast<double>(t.retries), true);
  add("exec_budget_denied", static_cast<double>(t.budget_denied), true);
  add("exec_degraded", static_cast<double>(t.degraded), true);
  if (result.have_server_side) {
    add("exec_server_shed", static_cast<double>(result.server_stats.shed),
        true);
    add("exec_snapshots_published",
        static_cast<double>(result.server_stats.snapshots_published), true);
  }
  // Timing (informational via the _ms/_seconds/_per_sec suffixes).
  add("latency_p50_ms", Percentile(t.latencies_ms, 0.50), false);
  add("latency_p99_ms", Percentile(t.latencies_ms, 0.99), false);
  add("wall_seconds", result.wall_seconds, false);
  std::snprintf(buffer, sizeof(buffer), "    \"throughput_per_sec\": %.2f\n",
                result.wall_seconds > 0.0
                    ? static_cast<double>(t.ok) / result.wall_seconds
                    : 0.0);
  *out += buffer;
  *out += "  }";
}

}  // namespace

int main(int argc, char** argv) {
  InstallSignalHygiene();
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--") && arg.find('=') != std::string::npos) {
      size_t eq = arg.find('=');
      args[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (StartsWith(arg, "--") && i + 1 < argc) {
      args[arg.substr(2)] = argv[++i];
    } else {
      return Fail("unexpected argument '" + arg + "' (see file header)");
    }
  }

  auto int_arg = [&](const std::string& key, int64_t fallback,
                     int64_t min_value) -> Result<int64_t> {
    if (!args.count(key)) return fallback;
    auto parsed = ParseInt64(args[key]);
    if (!parsed.ok() || *parsed < min_value) {
      return Status::InvalidArgument("--" + key + " must be an integer >= " +
                                     std::to_string(min_value));
    }
    return *parsed;
  };

  uint64_t seed = 42;
  if (args.count("seed")) {
    auto parsed = ParseInt64(args["seed"]);
    if (!parsed.ok()) return Fail("--seed must be an integer");
    seed = static_cast<uint64_t>(*parsed);
  }

  std::string connect_host;
  int connect_port = 0;
  if (args.count("connect")) {
    size_t colon = args["connect"].rfind(':');
    if (colon == std::string::npos) {
      return Fail("--connect expects HOST:PORT");
    }
    connect_host = args["connect"].substr(0, colon);
    auto port = ParseInt64(args["connect"].substr(colon + 1));
    if (!port.ok() || *port < 1 || *port > 65535) {
      return Fail("--connect expects a port in [1, 65535]");
    }
    connect_port = static_cast<int>(*port);
  }

  auto rows = int_arg("rows", 160, 8);
  auto sessions = int_arg("sessions", 2, 1);
  auto queue = int_arg("queue", 4, 1);
  auto requests = int_arg("requests", 0, 1);  // 0 = per-scenario default
  auto clients = int_arg("clients", 0, 1);
  auto deadline = int_arg("deadline-ms", 0, 0);  // 0 = scenario default
  for (const auto* parsed : {&rows, &sessions, &queue}) {
    if (!parsed->ok()) return Fail(parsed->status().ToString());
  }
  if (!requests.ok() || !clients.ok() || !deadline.ok()) {
    return Fail("--requests/--clients/--deadline-ms must be positive");
  }

  // Small synthetic workload: requests must be millisecond-scale so the
  // overload scenario exercises queuing, not sheer compute.
  ProfileOptions profile_options;
  profile_options.seed = seed;
  profile_options.num_rows = static_cast<size_t>(*rows);
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  if (!relation.ok()) return Fail(relation.status().ToString());
  ConstraintGenOptions gen;
  gen.count = 4;
  gen.min_support = 2;
  gen.seed = seed;
  auto constraints = GenerateConstraints(*relation, gen);
  if (!constraints.ok()) return Fail(constraints.status().ToString());

  serve::ServerOptions server_options;
  server_options.sessions = static_cast<size_t>(*sessions);
  server_options.queue_capacity = static_cast<size_t>(*queue);
  server_options.initial_cost_ms = 20.0;
  server_options.seed = seed;

  // Admission capacity = everyone the server will hold at once; the
  // overload scenario offers 4x that.
  const size_t capacity =
      server_options.sessions + server_options.queue_capacity;

  ScenarioConfig steady;
  steady.name = "steady";
  steady.clients = server_options.sessions;
  steady.requests_per_client = 20;
  steady.deadline_ms = 10000;

  ScenarioConfig overload;
  overload.name = "overload";
  overload.clients = 4 * capacity;
  overload.requests_per_client = 8;
  overload.deadline_ms = 150;

  for (ScenarioConfig* config : {&steady, &overload}) {
    if (*clients > 0) config->clients = static_cast<size_t>(*clients);
    if (*requests > 0) {
      config->requests_per_client = static_cast<size_t>(*requests);
    }
    if (*deadline > 0) config->deadline_ms = *deadline;
  }
  // Every publish stays in the store, so the post-run re-audit covers
  // all of them.
  server_options.snapshot_capacity =
      std::max(steady.clients * steady.requests_per_client,
               overload.clients * overload.requests_per_client) +
      8;

  std::string scenario =
      args.count("scenario") ? ToLowerAscii(args["scenario"]) : "both";
  std::vector<ScenarioConfig> configs;
  if (scenario == "steady" || scenario == "both") configs.push_back(steady);
  if (scenario == "overload" || scenario == "both") {
    configs.push_back(overload);
  }
  if (configs.empty()) {
    return Fail("unknown --scenario '" + scenario +
                "' (steady|overload|both)");
  }

  std::vector<ScenarioResult> results;
  for (const ScenarioConfig& config : configs) {
    results.push_back(RunScenario(config, connect_host, connect_port,
                                  *relation, *constraints, server_options,
                                  seed));
    PrintScenario(results.back());
    if (Interrupted()) break;
  }

  bool invariants_ok = true;
  for (const ScenarioResult& result : results) {
    const uint64_t offered =
        result.config.clients * result.config.requests_per_client;
    const WorkerTally& t = result.tally;
    if (t.ok + t.gave_up + t.failed != offered) invariants_ok = false;
    if (result.leaked_inflight != 0) invariants_ok = false;
    if (result.unaudited_snapshots != 0) invariants_ok = false;
    if (result.reaudit_failures != 0) invariants_ok = false;
    if (t.failed != 0) invariants_ok = false;
  }

  if (args.count("json")) {
    std::string out = "{\n";
    out += "  \"_meta\": {\"bench\": \"serve\", \"seed\": " +
           std::to_string(seed) + ", \"rows\": " + std::to_string(*rows) +
           "},\n";
    for (size_t i = 0; i < results.size(); ++i) {
      AppendJson(&out, results[i]);
      out += i + 1 < results.size() ? ",\n" : "\n";
    }
    out += "}\n";
    std::ofstream file(args["json"], std::ios::trunc);
    if (!file) return Fail("cannot write " + args["json"]);
    file << out;
    std::fprintf(stderr, "diva_loadgen: wrote %s\n", args["json"].c_str());
  }

  if (!invariants_ok) {
    return Fail("invariant violation (unaccounted or failed requests, "
                "leaked in-flight work, or unaudited or re-audit-failing "
                "snapshots)");
  }
  return 0;
}
