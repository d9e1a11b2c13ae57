// diva_serverd — the crash-tolerant anonymization service. Loads (or
// generates) one relation and its diversity constraints at startup, then
// serves anonymize / verify / fetch / stats / ping / update requests over
// the length-prefixed protocol in serve/protocol.h until drained by SIGTERM
// or SIGINT. See docs/serving.md for the wire protocol, the admission
// formula and the degradation ladder.
//
// Usage:
//   diva_serverd --input data.csv --schema schema.txt
//       [--constraints sigma.txt] [serve knobs...]
//   diva_serverd [--profile pantheon|census|credit|popsyn] [--rows N]
//       [--gen-constraints N] [serve knobs...]       # synthetic workload
//
// An unknown flag, a flag without its value or a --port outside
// [0, 65535] exits 1 before the daemon binds.
//
// Serve knobs (defaults in serve/server.h):
//   --host H              listen address      (default 127.0.0.1)
//   --port P              listen port         (default 0 = ephemeral)
//   --sessions N          session workers
//   --queue N             accepted-connection queue capacity
//   --snapshot-capacity N published results retained (the oldest is
//                         evicted past this)
//   --initial-cost-ms X   admission cost prior
//   --wedge-timeout-ms X  budget of a request that states no deadline
//   --drain-grace-ms X    drain wait before force-cancel
//   --pipeline-threads N  DivaOptions::threads per request
//   --seed N              default pipeline seed
//   --run-seconds N       self-drain after N seconds (0 = until signal)
//   --quiet               suppress per-event log lines
//
// Shutdown: SIGTERM and SIGINT both request a graceful drain (stop
// accepting, let queued and in-flight work finish within the drain
// grace, force-cancel stragglers — which still produce audited, degraded
// responses where possible). A second signal falls back to the default
// disposition and kills the process.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

#include "common/mutex.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "constraint/generator.h"
#include "constraint/parser.h"
#include "datagen/profiles.h"
#include "examples/example_util.h"
#include "relation/csv.h"
#include "relation/schema.h"
#include "serve/server.h"

namespace {

using namespace diva;            // NOLINT: example brevity
using namespace diva::examples;  // NOLINT

int Fail(const std::string& message) {
  std::fprintf(stderr, "diva_serverd: error: %s\n", message.c_str());
  return 1;
}

// The server the signal handler drains. Installed after construction,
// cleared before destruction; the handler only ever performs relaxed
// atomic loads/stores (async-signal-safe).
std::atomic<serve::Server*> g_server{nullptr};
std::atomic<bool> g_shutdown{false};

void HandleShutdownSignal(int) {
  g_shutdown.store(true, std::memory_order_relaxed);
  if (serve::Server* server = g_server.load(std::memory_order_relaxed)) {
    server->RequestDrain();  // one relaxed store
  }
  // A second signal kills for real: a wedged drain must stay killable.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed_args = Flags::Parse(
      argc, argv,
      {"input", "schema", "constraints", "profile", "rows", "gen-constraints",
       "host", "port", "sessions", "queue", "snapshot-capacity",
       "initial-cost-ms", "wedge-timeout-ms", "drain-grace-ms",
       "pipeline-threads", "seed", "run-seconds"},
      {"quiet"});
  if (!parsed_args.ok()) {
    return Fail(parsed_args.status().message() + " (see file header)");
  }
  const Flags args = std::move(parsed_args).value();

  auto int_arg = [&](const std::string& key, int64_t fallback,
                     int64_t min_value) -> Result<int64_t> {
    if (!args.Has(key)) return fallback;
    auto parsed = ParseInt64(args.Get(key));
    if (!parsed.ok() || *parsed < min_value) {
      return Status::InvalidArgument("--" + key + " must be an integer >= " +
                                     std::to_string(min_value));
    }
    return *parsed;
  };
  auto double_arg = [&](const std::string& key,
                        double fallback) -> Result<double> {
    if (!args.Has(key)) return fallback;
    auto parsed = ParseDouble(args.Get(key));
    if (!parsed.ok() || *parsed <= 0.0) {
      return Status::InvalidArgument("--" + key + " must be positive");
    }
    return *parsed;
  };

  uint64_t seed = 42;
  if (args.Has("seed")) {
    auto parsed = ParseInt64(args.Get("seed"));
    if (!parsed.ok()) return Fail("--seed must be an integer");
    seed = static_cast<uint64_t>(*parsed);
  }

  // ---- The served relation: a CSV on disk or a synthetic profile. ----
  std::shared_ptr<const Schema> schema;
  Result<Relation> relation = Status::Internal("unset");
  if (args.Has("input")) {
    if (!args.Has("schema")) {
      return Fail("--input requires --schema (NAME,role,kind per line)");
    }
    auto loaded_schema = LoadSchemaFile(args.Get("schema"));
    if (!loaded_schema.ok()) return Fail(loaded_schema.status().ToString());
    schema = *loaded_schema;
    relation = ReadCsvFile(args.Get("input"), schema);
  } else {
    DatasetProfile profile = DatasetProfile::kPopSyn;
    if (args.Has("profile")) {
      std::string name = ToLowerAscii(args.Get("profile"));
      if (name == "pantheon") {
        profile = DatasetProfile::kPantheon;
      } else if (name == "census") {
        profile = DatasetProfile::kCensus;
      } else if (name == "credit") {
        profile = DatasetProfile::kCredit;
      } else if (name == "popsyn" || name == "pop-syn") {
        profile = DatasetProfile::kPopSyn;
      } else {
        return Fail("unknown profile '" + name + "'");
      }
    }
    ProfileOptions profile_options;
    profile_options.seed = seed;
    auto rows = int_arg("rows", 400, 1);
    if (!rows.ok()) return Fail(rows.status().ToString());
    profile_options.num_rows = static_cast<size_t>(*rows);
    relation = GenerateProfile(profile, profile_options);
  }
  if (!relation.ok()) return Fail(relation.status().ToString());

  // ---- Diversity constraints: a sigma file or generated in-memory. ----
  ConstraintSet constraints;
  if (args.Has("constraints")) {
    if (!schema) {
      return Fail("--constraints requires --schema to resolve attributes");
    }
    auto loaded = LoadConstraintSet(*schema, args.Get("constraints"));
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    constraints = std::move(loaded).value();
  } else {
    auto count = int_arg("gen-constraints", 6, 0);
    if (!count.ok()) return Fail(count.status().ToString());
    if (*count > 0) {
      ConstraintGenOptions gen;
      gen.count = static_cast<size_t>(*count);
      gen.min_support = 2;
      gen.seed = seed;
      auto generated = GenerateConstraints(*relation, gen);
      if (!generated.ok()) return Fail(generated.status().ToString());
      constraints = std::move(generated).value();
    }
  }

  // ---- Serve knobs onto ServerOptions. ----
  serve::ServerOptions options;
  options.host = args.Has("host") ? args.Get("host") : options.host;
  options.seed = seed;
  struct IntKnob {
    const char* key;
    size_t* out;
  };
  auto port = int_arg("port", 0, 0);
  if (!port.ok()) return Fail(port.status().ToString());
  options.port = static_cast<int>(*port);
  const IntKnob int_knobs[] = {
      {"sessions", &options.sessions},
      {"queue", &options.queue_capacity},
      {"snapshot-capacity", &options.snapshot_capacity},
      {"pipeline-threads", &options.pipeline_threads},
  };
  for (const IntKnob& knob : int_knobs) {
    auto value = int_arg(knob.key, static_cast<int64_t>(*knob.out), 1);
    if (!value.ok()) return Fail(value.status().ToString());
    *knob.out = static_cast<size_t>(*value);
  }
  struct DoubleKnob {
    const char* key;
    double* out;
  };
  const DoubleKnob double_knobs[] = {
      {"initial-cost-ms", &options.initial_cost_ms},
      {"wedge-timeout-ms", &options.wedge_timeout_ms},
      {"drain-grace-ms", &options.drain_grace_ms},
  };
  for (const DoubleKnob& knob : double_knobs) {
    auto value = double_arg(knob.key, *knob.out);
    if (!value.ok()) return Fail(value.status().ToString());
    *knob.out = *value;
  }
  auto run_seconds = int_arg("run-seconds", 0, 0);
  if (!run_seconds.ok()) return Fail(run_seconds.status().ToString());

  if (!args.Has("quiet")) {
    options.logger = [](const std::string& message) {
      // Server::Log already prefixes "diva_serverd: ".
      std::fprintf(stderr, "%s\n", message.c_str());
    };
  }

  const size_t num_rows = relation->NumRows();
  const size_t num_constraints = constraints.size();
  serve::Server server(std::move(relation).value(), std::move(constraints),
                       options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started.ToString());

  // Handlers go in only after the server exists: the handler's relaxed
  // load either sees null (drain flag alone suffices) or a live server.
  g_server.store(&server, std::memory_order_relaxed);
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);

  std::fprintf(stderr, "diva_serverd: listening on %s:%d (%zu rows, %zu "
               "constraints, %zu sessions, queue %zu)\n",
               options.host.c_str(), server.port(), num_rows,
               num_constraints, options.sessions, options.queue_capacity);

  // Park until a signal (or the --run-seconds budget) requests drain.
  // CondVar::WaitFor is the codebase's interruptible sleep; the signal
  // handler cannot notify it (not async-signal-safe), so poll.
  const double started_at = MonotonicSeconds();
  {
    Mutex nap_mutex;
    CondVar nap_cv;
    MutexLock lock(nap_mutex);
    while (!g_shutdown.load(std::memory_order_relaxed) &&
           !server.draining()) {
      if (*run_seconds > 0 &&
          MonotonicSeconds() - started_at >=
              static_cast<double>(*run_seconds)) {
        server.RequestDrain();
        break;
      }
      nap_cv.WaitFor(lock, 0.05);
    }
  }

  std::fprintf(stderr, "diva_serverd: draining\n");
  server.Stop();
  g_server.store(nullptr, std::memory_order_relaxed);

  const serve::ServerStats stats = server.stats();
  std::fprintf(
      stderr,
      "diva_serverd: served %llu request(s) (%llu response(s), %llu "
      "shed, %llu degraded, %llu snapshot(s)); "
      "inflight=%zu\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.responses),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.degraded),
      static_cast<unsigned long long>(stats.snapshots_published),
      server.inflight());
  // A leaked in-flight request after Stop() is a bug (the chaos suite
  // asserts the same invariant).
  return server.inflight() == 0 ? 0 : 1;
}
