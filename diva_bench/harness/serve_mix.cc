// serve_mix: the shipped diva_serverd on a multi-component base, driven
// by two closed-loop clients (serve::Client) through a seeded request
// sequence — about 60% anonymize, 20% fetch, 10% verify, 10% update —
// until the run's time is up. A traced run adds a ping probe and the
// in-process split of the same anonymize pipeline.

#include <signal.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "constraint/parser.h"
#include "core/constraint_graph.h"
#include "core/incremental.h"
#include "core/shard.h"
#include "metrics/metrics.h"
#include "process.h"
#include "relation/csv.h"
#include "runs.h"
#include "serve/client.h"
#include "verify/auditor.h"

namespace diva_bench {

using diva::Relation;
using diva::serve::Client;
using diva::serve::Request;
using diva::serve::Response;

namespace {

constexpr size_t kClients = 2;
constexpr size_t kSetupReps = 9;
/// Fetched CSVs kept per client for the end-of-run audit.
constexpr size_t kMaxFetchesKept = 24;
/// Update parameters are fixed so every update chains incrementally.
constexpr int kUpdateK = 10;
constexpr int kUpdateSeed = 42;
/// The deterministic anonymize whose fetched output gives stars_frac.
constexpr int kReferenceK = 10;
constexpr int kReferenceSeed = 42;

/// The DivaOptions diva_serverd gives an anonymize request (k, seed)
/// under this workload's daemon flags.
diva::DivaOptions ServeOptions(size_t k, uint64_t seed) {
  diva::DivaOptions options;
  options.k = k;
  options.seed = seed;
  options.threads = 1;
  options.audit = true;
  options.deadline_ms = 0;
  return options;
}

struct ServeInputs {
  std::shared_ptr<const diva::Schema> schema;
  diva::ConstraintSet constraints;
  std::optional<Relation> base;
  std::vector<std::string> deltas;
};

diva::Status LoadServeInputs(const std::string& dir, ServeInputs* inputs) {
  DIVA_ASSIGN_OR_RETURN(inputs->schema, LoadSchema(SchemaPath(dir)));
  DIVA_ASSIGN_OR_RETURN(inputs->constraints,
                        diva::LoadConstraintSet(*inputs->schema, SigmaPath(dir)));
  DIVA_ASSIGN_OR_RETURN(Relation base,
                        diva::ReadCsvFile(DataPath(dir), inputs->schema));
  inputs->base.emplace(std::move(base));
  for (size_t j = 0;; ++j) {
    auto text = ReadText(DeltaPath(dir, j));
    if (!text.ok()) break;
    inputs->deltas.push_back(std::move(text).value());
  }
  if (inputs->deltas.empty()) return diva::Status::IoError("no delta files");
  return diva::Status::OK();
}

Request MakeRequest(const std::string& verb,
                    std::map<std::string, std::string> params = {},
                    std::string body = {}) {
  Request request;
  request.verb = verb;
  request.params = std::move(params);
  request.body = std::move(body);
  return request;
}

uint64_t FieldNumber(const Response& response, const std::string& key) {
  return std::strtoull(response.Field(key, "0").c_str(), nullptr, 10);
}

/// A published anonymize: its snapshot id and request parameters.
struct Published {
  uint64_t snapshot = 0;
  size_t k = 0;
  uint64_t seed = 0;
};

/// What one client saw; merged after the loop.
struct ClientLog {
  std::vector<double> anonymize_ms, fetch_ms, verify_ms, update_ms;
  std::vector<double> fetch_bytes;
  /// (snapshot id, delta index) of every published update.
  std::vector<std::pair<uint64_t, size_t>> updates;
  struct Fetch {
    Published published;
    std::string csv;
  };
  std::vector<Fetch> fetched;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t completed = 0;
};

/// Sends `request` and checks the response's contract; returns the
/// response when it is a success that passes every check.
std::optional<Response> Exchange(Client* client, const Request& request,
                                 size_t rows, ClientLog* log, double* ms) {
  ++log->attempted;
  const double start = diva::MonotonicSeconds();
  auto response = client->Call(request);
  *ms = Since(start) * 1e3;
  const std::string& verb = request.verb;
  auto fail = [&](const std::string& why) {
    log->failures.push_back(verb + ": " + why);
    return std::nullopt;
  };
  if (!response.ok()) return fail(response.status().ToString());
  if (!response->ok) return fail(response->ToStatus().ToString());
  const Response& r = *response;
  if (verb == "anonymize" || verb == "update") {
    if (r.Field("audited", "0") != "1") return fail("unaudited snapshot");
    if (r.Field("degraded", "1") != "0") return fail("degraded");
    if (r.Field("unsatisfied", "1") != "0") return fail("unsatisfied constraints");
    if (FieldNumber(r, "rows") != rows) return fail("wrong row count");
  } else if (verb == "fetch") {
    if (r.Field("audited", "0") != "1") return fail("unaudited snapshot");
    if (FieldNumber(r, "rows") != rows || r.body.empty()) return fail("bad CSV");
  } else if (verb == "verify") {
    if (r.Field("verdict", "") != "pass") return fail("verdict " + r.Field("verdict", "?"));
  }
  ++log->completed;
  return r;
}

/// One closed-loop client: the next request goes out when the previous
/// response is in. Its sequence is drawn from (seed, client index).
void ClientLoop(int port, size_t index, uint64_t seed, double deadline,
                const ServeInputs& inputs, ClientLog* log) {
  auto client = Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    log->failures.push_back("connect: " + client.status().ToString());
    ++log->attempted;
    return;
  }
  const size_t rows = inputs.base->NumRows();
  diva::Rng rng(seed * 7919 + 101 * (index + 1));
  std::optional<Published> last;
  while (diva::MonotonicSeconds() < deadline) {
    const uint64_t draw = rng.NextBounded(10);
    std::string verb = draw < 6 ? "anonymize" : draw < 8 ? "fetch"
                       : draw < 9 ? "verify" : "update";
    if (!last.has_value() && (verb == "fetch" || verb == "verify")) {
      verb = "anonymize";
    }
    Request request;
    Published sent;
    size_t delta = 0;
    if (verb == "anonymize") {
      sent.k = rng.NextBounded(2) == 0 ? 5 : 10;
      sent.seed = 1 + rng.NextBounded(4);
      request = MakeRequest(verb, {{"k", std::to_string(sent.k)},
                                   {"seed", std::to_string(sent.seed)}});
    } else if (verb == "fetch") {
      request = MakeRequest(verb, {{"snapshot", std::to_string(last->snapshot)}});
    } else if (verb == "verify") {
      request = MakeRequest(verb, {{"snapshot", std::to_string(last->snapshot)},
                                   {"k", std::to_string(last->k)}});
    } else {
      delta = rng.NextBounded(inputs.deltas.size());
      request = MakeRequest(verb, {{"k", std::to_string(kUpdateK)},
                                   {"seed", std::to_string(kUpdateSeed)}},
                            inputs.deltas[delta]);
    }
    double ms = 0.0;
    std::optional<Response> response =
        Exchange(&*client, request, rows, log, &ms);
    if (!response.has_value()) continue;
    if (verb == "anonymize") {
      log->anonymize_ms.push_back(ms);
      sent.snapshot = FieldNumber(*response, "snapshot");
      last = sent;
    } else if (verb == "fetch") {
      log->fetch_ms.push_back(ms);
      log->fetch_bytes.push_back(static_cast<double>(response->body.size()));
      if (log->fetched.size() < kMaxFetchesKept) {
        log->fetched.push_back({*last, response->body});
      }
    } else if (verb == "verify") {
      log->verify_ms.push_back(ms);
    } else {
      log->update_ms.push_back(ms);
      if (response->Field("incremental", "0") != "1") {
        log->failures.push_back("update: not incremental");
      }
      log->updates.emplace_back(FieldNumber(*response, "snapshot"), delta);
    }
  }
}

/// Launches the daemon and times launch to the first ping reply.
diva::Result<int> LaunchDaemon(const std::string& dir, Child* daemon,
                               double* seconds) {
  const double start = diva::MonotonicSeconds();
  DIVA_RETURN_IF_ERROR(daemon->Spawn(
      {SelfDir() + "/diva_serverd", "--input", DataPath(dir), "--schema",
       SchemaPath(dir), "--constraints", SigmaPath(dir), "--port", "0",
       "--sessions", std::to_string(kClients), "--pipeline-threads", "1",
       "--seed", "42", "--quiet"},
      2));
  DIVA_ASSIGN_OR_RETURN(std::string line,
                        daemon->WaitForLine("listening on", 60.0));
  const size_t colon = line.rfind(':', line.find(" ("));
  const int port = std::atoi(line.c_str() + colon + 1);
  if (port <= 0) return diva::Status::IoError("no port in: " + line);
  DIVA_ASSIGN_OR_RETURN(Client client, Client::Connect("127.0.0.1", port));
  DIVA_ASSIGN_OR_RETURN(Response pong, client.Call(MakeRequest("ping")));
  if (!pong.ok) return pong.ToStatus();
  *seconds = Since(start);
  return port;
}

}  // namespace

void RunServeSession(const std::string& dir, uint64_t seed, double seconds,
                     size_t pings, RunResult* result, ServeFigures* figures) {
  ServeInputs inputs;
  diva::Status loaded = LoadServeInputs(dir, &inputs);
  if (!loaded.ok()) return result->Fail("serve inputs: " + loaded.ToString());
  const size_t rows = inputs.base->NumRows();
  figures->components =
      diva::ComputeShardPlan(
          diva::BuildConstraintGraph(*inputs.base, inputs.constraints), rows)
          .shards.size();

  // Set-up, several times: every launch but the last is killed right
  // after its first ping reply, and its CPU seconds up to then are one
  // sample (CPU rather than wall time, as in the batch set-up probe).
  Child daemon;
  int port = 0;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    double launch_s = 0.0;
    auto launched = LaunchDaemon(dir, &daemon, &launch_s);
    if (!launched.ok()) {
      daemon.Stop(SIGKILL, 5.0);
      return result->Fail("daemon launch: " + launched.status().ToString());
    }
    port = *launched;
    figures->setup_wall_s.push_back(launch_s);
    if (rep + 1 < kSetupReps) {
      daemon.Stop(SIGKILL, 30.0);
      figures->setup_s.push_back(daemon.cpu_seconds());
    }
  }

  // Warm-up on one connection: the first update (a cold run that starts
  // the snapshot chain) and the reference anonymize, fetched.
  ClientLog warm;
  {
    auto client = Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      daemon.Stop(SIGKILL, 5.0);
      return result->Fail("connect: " + client.status().ToString());
    }
    double ms = 0.0;
    auto updated = Exchange(&*client,
                            MakeRequest("update",
                                        {{"k", std::to_string(kUpdateK)},
                                         {"seed", std::to_string(kUpdateSeed)}},
                                        inputs.deltas[0]),
                            rows, &warm, &ms);
    if (updated.has_value()) {
      warm.updates.emplace_back(FieldNumber(*updated, "snapshot"), 0);
    }
    auto reference = Exchange(
        &*client,
        MakeRequest("anonymize", {{"k", std::to_string(kReferenceK)},
                                  {"seed", std::to_string(kReferenceSeed)}}),
        rows, &warm, &ms);
    if (reference.has_value()) {
      const uint64_t id = FieldNumber(*reference, "snapshot");
      auto fetched = Exchange(
          &*client, MakeRequest("fetch", {{"snapshot", std::to_string(id)}}),
          rows, &warm, &ms);
      if (fetched.has_value()) {
        warm.fetched.push_back(
            {{id, static_cast<size_t>(kReferenceK), kReferenceSeed},
             fetched->body});
      }
    }
  }

  // The closed loop; the daemon's peak resident set is taken over it.
  if (!ResetPeakRss(daemon.pid())) result->Fail("cannot reset the daemon's VmHWM");
  std::vector<ClientLog> logs(kClients);
  const double loop_start = diva::MonotonicSeconds();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(ClientLoop, port, c, seed, loop_start + seconds,
                           std::cref(inputs), &logs[c]);
    }
    for (std::thread& thread : threads) thread.join();
  }
  figures->loop_seconds = Since(loop_start);

  // Ping probe and the stats invariant on a fresh connection, closed
  // again before the drain.
  if (auto client = Client::Connect("127.0.0.1", port); !client.ok()) {
    result->Fail("connect: " + client.status().ToString());
  } else {
    for (size_t i = 0; i < pings; ++i) {
      const double start = diva::MonotonicSeconds();
      auto pong = client->Call(MakeRequest("ping"));
      if (result->Check(pong.ok() && pong->ok, "ping failed")) {
        figures->ping_ms.push_back(Since(start) * 1e3);
      }
    }
    auto stats = client->Call(MakeRequest("stats"));
    if (result->Check(stats.ok() && stats->ok, "stats request failed")) {
      // The stats request itself is counted but not yet answered.
      const uint64_t requests = FieldNumber(*stats, "requests");
      result->Check(requests + FieldNumber(*stats, "protocol_errors") ==
                        FieldNumber(*stats, "responses") +
                            FieldNumber(*stats, "response_failures") + 1,
                    "stats accounting invariant broken");
      figures->shed_frac =
          requests > 0 ? static_cast<double>(FieldNumber(*stats, "shed")) /
                             static_cast<double>(requests)
                       : 0.0;
    }
  }
  figures->daemon_rss_mb = PeakRssMb(daemon.pid());
  result->Check(daemon.Stop(SIGTERM, 30.0) == 0,
                "daemon exited uncleanly (in-flight work leaked?)");

  // Merge the logs and audit every fetched CSV against the base it was
  // published from: the latest update published before it, or the
  // initial base.
  logs.push_back(std::move(warm));
  std::vector<std::pair<uint64_t, size_t>> updates;
  for (ClientLog& log : logs) {
    result->Attempt(log.attempted);
    for (const std::string& failure : log.failures) result->Fail(failure);
    updates.insert(updates.end(), log.updates.begin(), log.updates.end());
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    if (&log != &logs.back()) {  // the warm-up is not part of the loop
      append(&figures->anonymize_ms, log.anonymize_ms);
      append(&figures->fetch_ms, log.fetch_ms);
      append(&figures->verify_ms, log.verify_ms);
      append(&figures->update_ms, log.update_ms);
      append(&figures->fetch_bytes, log.fetch_bytes);
      figures->completed += log.completed;
    }
  }
  std::sort(updates.begin(), updates.end());
  // Each fetched CSV is audited against the base it was published from
  // and must equal, byte for byte, an in-process RunDiva of the same
  // request on that base.
  constexpr size_t kInitialBase = static_cast<size_t>(-1);
  std::map<size_t, Relation> bases;
  std::map<std::tuple<size_t, size_t, uint64_t>, uint64_t> expected;
  for (const ClientLog& log : logs) {
    for (const ClientLog::Fetch& fetch : log.fetched) {
      const Published& sent = fetch.published;
      size_t delta = kInitialBase;
      for (const auto& [id, index] : updates) {
        if (id < sent.snapshot) delta = index;
      }
      auto base = bases.find(delta);
      if (base == bases.end()) {
        auto applied = [&]() -> diva::Result<Relation> {
          if (delta == kInitialBase) return *inputs.base;
          DIVA_ASSIGN_OR_RETURN(diva::DeltaBatch batch,
                                diva::ParseDeltaFile(inputs.deltas[delta]));
          return diva::ApplyDeltaToRelation(*inputs.base, batch);
        }();
        if (!applied.ok()) {
          result->Fail("rebuild base: " + applied.status().ToString());
          continue;
        }
        base = bases.emplace(delta, std::move(applied).value()).first;
      }
      const Relation& original = base->second;
      const auto key = std::make_tuple(delta, sent.k, sent.seed);
      if (!expected.count(key)) {
        auto rerun = diva::RunDiva(original, inputs.constraints,
                                   ServeOptions(sent.k, sent.seed));
        expected[key] = rerun.ok() ? HashRelation(rerun->relation) : 0;
      }
      std::istringstream csv(fetch.csv);
      auto published = diva::ReadCsv(csv, inputs.schema);
      if (!result->Check(published.ok(), "fetched CSV unreadable")) continue;
      auto audit = diva::AuditAnonymization(original, *published, sent.k,
                                            inputs.constraints);
      result->Check(audit.ok() && audit->ok(),
                    "fetched snapshot " + std::to_string(sent.snapshot) +
                        " fails its audit");
      result->Check(HashRelation(*published) == expected[key],
                    "fetched snapshot " + std::to_string(sent.snapshot) +
                        " differs from an in-process RunDiva");
      if (&log == &logs.back()) {
        figures->stars_frac = diva::SuppressionRatio(*published);
        figures->unsatisfied =
            diva::ViolatedConstraints(*published, inputs.constraints).size();
      }
    }
  }
}

double PipelineMillis(const std::string& dir, size_t reps, RunResult* result) {
  ServeInputs inputs;
  diva::Status loaded = LoadServeInputs(dir, &inputs);
  if (!loaded.ok()) {
    result->Fail("serve inputs: " + loaded.ToString());
    return 0.0;
  }
  const diva::DivaOptions options = ServeOptions(kReferenceK, kReferenceSeed);
  std::vector<double> ms;
  for (size_t rep = 0; rep < reps; ++rep) {
    result->Attempt();
    const double start = diva::MonotonicSeconds();
    auto run = diva::RunDiva(*inputs.base, inputs.constraints, options);
    if (!run.ok()) {
      result->Fail("in-process pipeline: " + run.status().ToString());
      continue;
    }
    ms.push_back(Since(start) * 1e3);
  }
  return Median(ms);
}

void RunServeMix(const RunConfig& config, RunResult* result) {
  ServeFigures serve;
  RunServeSession(config.dir, config.seed, config.seconds,
                  config.trace ? 40 : 0, result, &serve);
  result->MetaNumber("components", static_cast<double>(serve.components));
  result->MetaNumber("sessions", kClients);
  result->MetaNumber("pipeline_threads", 1);
  result->MetaNumber("clients", kClients);
  result->MetaNumber("loop_seconds", serve.loop_seconds);
  result->MetaNumber("completed_requests", static_cast<double>(serve.completed));
  result->MetaSamples("setup_samples_s", serve.setup_s);
  result->MetaSamples("setup_wall_samples_s", serve.setup_wall_s);
  result->MetaNumber("anonymize_samples", static_cast<double>(serve.anonymize_ms.size()));
  result->MetaNumber("fetch_samples", static_cast<double>(serve.fetch_ms.size()));
  result->MetaNumber("verify_samples", static_cast<double>(serve.verify_ms.size()));
  result->MetaNumber("update_samples", static_cast<double>(serve.update_ms.size()));
  result->MetaNumber("unsatisfied", static_cast<double>(serve.unsatisfied));
  if (!config.trace) {
    result->Metric("setup_s", Median(serve.setup_s), "s");
    result->Metric("publish_s", Median(serve.anonymize_ms) / 1e3, "s");
    result->Metric("update_s", Median(serve.update_ms) / 1e3, "s");
    result->Metric("peak_rss_mb", serve.daemon_rss_mb, "MiB");
    result->Metric("stars_frac", serve.stars_frac, "ratio");
    return;
  }

  // The in-process split of the anonymize pipeline on the served base,
  // plus one traced incremental update — with the daemon stopped, so
  // nothing competes for the cores.
  ServeInputs inputs;
  diva::Status loaded = LoadServeInputs(config.dir, &inputs);
  if (!loaded.ok()) return result->Fail("serve inputs: " + loaded.ToString());
  diva::DivaOptions options = ServeOptions(kReferenceK, kReferenceSeed);
  SpanRecorder spans;
  LayerSplit split;
  split.unsatisfied = serve.unsatisfied;
  diva::Status written = diva::Status::OK();
  const size_t reps = 15;
  for (size_t rep = 0; rep < reps; ++rep) {
    result->Attempt(2);
    double start = diva::MonotonicSeconds();
    auto base = diva::ReadCsvFile(DataPath(config.dir), inputs.schema);
    if (!base.ok()) return result->Fail(base.status().ToString());
    auto run = diva::RunDiva(*base, inputs.constraints, options);
    if (!run.ok()) return result->Fail(run.status().ToString());
    std::ostringstream sink;
    written = diva::WriteCsv(run->relation, sink);
    split.untraced_publish_s.push_back(Since(start));
    split.reports.push_back(run->report);
    if (!written.ok()) return result->Fail(written.ToString());

    const uint64_t op = spans.BeginOperation();
    start = diva::MonotonicSeconds();
    diva::Result<Relation> traced = diva::Status::Internal("not run");
    {
      ScopedSpan root(&spans, "publish");
      diva::Result<Relation> input = [&] {
        ScopedSpan span(&spans, "relation.csv_read");
        return diva::ReadCsvFile(DataPath(config.dir), inputs.schema);
      }();
      if (input.ok()) {
        traced = RunLayered(*input, inputs.constraints, options, &spans,
                            &split.counts);
      }
      if (traced.ok()) {
        ScopedSpan span(&spans, "relation.csv_write");
        std::ostringstream out;
        written = diva::WriteCsv(*traced, out);
      }
    }
    split.traced_publish_s.push_back(Since(start));
    if (!traced.ok() || HashRelation(*traced) != HashRelation(run->relation)) {
      result->Fail("traced in-process publish differs from RunDiva's bytes");
    }
    split.AddOperation(spans, op, "publish");
  }

  options.incremental = true;
  auto prior = diva::RunDiva(*inputs.base, inputs.constraints, options);
  if (!prior.ok() || prior->snapshot == nullptr) {
    return result->Fail("served base captured no incremental snapshot");
  }
  for (size_t j = 0; j < inputs.deltas.size(); ++j) {
    result->Attempt();
    const uint64_t op = spans.BeginOperation();
    diva::Result<diva::DivaResult> updated = diva::Status::Internal("not run");
    double reused = 0.0;
    double recolored = 0.0;
    {
      ScopedSpan root(&spans, "update");
      auto delta = [&] {
        ScopedSpan span(&spans, "core.delta_parse");
        return diva::ParseDeltaFile(inputs.deltas[j]);
      }();
      if (!delta.ok()) return result->Fail(delta.status().ToString());
      const auto before = diva::counters::Snapshot();
      {
        ScopedSpan span(&spans, "core.delta_apply");
        updated = diva::ApplyDelta(*prior->snapshot, *delta, options);
      }
      const auto after = diva::counters::Snapshot();
      reused = static_cast<double>(
          CounterDelta(before, after, "incremental.shards_reused"));
      recolored = static_cast<double>(
          CounterDelta(before, after, "incremental.shards_recolored"));
      if (updated.ok()) {
        ScopedSpan span(&spans, "relation.csv_write");
        std::ostringstream out;
        written = diva::WriteCsv(updated->relation, out);
      }
    }
    if (!updated.ok()) return result->Fail(updated.status().ToString());
    if (!written.ok()) return result->Fail(written.ToString());
    split.AddOperation(spans, op, "update");
    split.shards_reused_frac.push_back(
        reused + recolored > 0 ? reused / (reused + recolored) : 0.0);
  }
  if (!spans.WriteJson(config.dir + "/spans.json")) {
    result->Fail("cannot write spans.json");
  }
  EmitLayerMetrics(split, serve, PipelineMillis(config.dir, reps, result),
                   result);
}

}  // namespace diva_bench
