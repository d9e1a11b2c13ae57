#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "relation/csv.h"
#include "verify/auditor.h"

namespace diva {
namespace serve {

namespace {

/// Recv/send stall guard on accepted sockets: a peer that goes silent
/// mid-frame (or stops reading responses) unblocks the session worker
/// after this long instead of wedging it past the drain grace.
constexpr double kSocketTimeoutSeconds = 1.0;

/// Stall guards plus TCP_NODELAY: the trailing partial segment of a
/// multi-segment response must not wait on the client's delayed ACK.
void ConfigureAcceptedSocket(int fd) {
  timeval tv;
  tv.tv_sec = static_cast<long>(kSocketTimeoutSeconds);
  tv.tv_usec = static_cast<long>(
      (kSocketTimeoutSeconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
}

Result<BaselineAlgorithm> ParseBaseline(const std::string& name) {
  if (name == "kmember") return BaselineAlgorithm::kKMember;
  if (name == "oka") return BaselineAlgorithm::kOka;
  if (name == "mondrian") return BaselineAlgorithm::kMondrian;
  return Status::InvalidArgument("unknown baseline '" + name +
                                 "' (kmember|oka|mondrian)");
}

std::string FormatMs(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", ms);
  return buffer;
}

}  // namespace

Server::Server(Relation base, ConstraintSet constraints, ServerOptions options)
    : constraints_(std::move(constraints)),
      options_(std::move(options)),
      base_(std::make_shared<const Relation>(std::move(base))),
      snapshots_(options_.snapshot_capacity),
      cost_tracker_(options_.initial_cost_ms) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (threads_ != nullptr) return Status::Internal("server already started");
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("listen port " +
                                   std::to_string(options_.port) +
                                   " is outside [0, 65535]");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::IoError(std::string("bind failed: ") +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, static_cast<int>(options_.queue_capacity) + 8) <
      0) {
    Status status = Status::IoError(std::string("listen failed: ") +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }

  // Each loop catches everything: TaskGroup::Wait rethrows a loop's
  // exception into Stop(), which must never fail to join the others.
  auto fenced = [this](void (Server::*loop)()) {
    return [this, loop] {
      try {
        (this->*loop)();
      } catch (const std::exception& e) {
        Log(std::string("service loop died: ") + e.what());
      } catch (...) {
        Log("service loop died: unknown exception");
      }
    };
  };
  threads_ = std::make_unique<TaskGroup>(options_.sessions + 1);
  tickets_.push_back(threads_->Submit(fenced(&Server::AcceptLoop)));
  for (size_t i = 0; i < options_.sessions; ++i) {
    tickets_.push_back(threads_->Submit(fenced(&Server::SessionLoop)));
  }
  Log("listening on " + options_.host + ":" + std::to_string(port_));
  return Status::OK();
}

void Server::Stop() {
  if (stopped_) return;
  RequestDrain();
  double expected = 0.0;
  drain_started_at_.compare_exchange_strong(expected, MonotonicSeconds(),
                                            std::memory_order_relaxed);
  queue_cv_.NotifyAll();

  if (threads_ != nullptr) {
    // Give queued and in-flight work the drain grace to finish cleanly.
    const double grace_seconds = options_.drain_grace_ms * 1e-3;
    StopWatch watch;
    Mutex nap_mutex;
    CondVar nap_cv;
    while (watch.ElapsedSeconds() < grace_seconds) {
      if (queued() == 0 && inflight() == 0) break;
      MutexLock lock(nap_mutex);
      nap_cv.WaitFor(lock, 0.01);
    }
    // Force-cancel whatever is still running: every request token is a
    // child of stop_, so the anytime pipeline returns promptly and the
    // session still writes an audited (degraded) terminal response.
    const size_t stragglers = inflight();
    if (stragglers > 0) {
      Log("drain grace over: cancelling " + std::to_string(stragglers) +
          " in-flight request(s)");
    }
    stop_.RequestCancel();
    queue_cv_.NotifyAll();
    for (uint64_t ticket : tickets_) threads_->Wait(ticket);
    threads_.reset();
    tickets_.clear();
  }

  // Connections accepted but never claimed by a session: close them
  // cleanly so nothing leaks.
  {
    MutexLock lock(queue_mutex_);
    for (int fd : queue_) ::close(fd);
    queue_.clear();
  }
  CloseListener();
  stopped_ = true;
  Log("stopped");
}

ServerStats Server::stats() const {
  MutexLock lock(stats_mutex_);
  return stats_;
}

size_t Server::inflight() const {
  MutexLock lock(inflight_mutex_);
  return inflight_;
}

size_t Server::queued() const {
  MutexLock lock(queue_mutex_);
  return queue_.size();
}

void Server::Log(const std::string& message) const {
  if (options_.logger) options_.logger("diva_serverd: " + message);
}

void Server::AcceptLoop() {
  while (!stop_.Cancelled() && !draining()) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    ConfigureAcceptedSocket(fd);
    {
      MutexLock lock(stats_mutex_);
      ++stats_.accepted_connections;
    }
    Status accept_fault = DIVA_FAIL("serve.accept");
    if (!accept_fault.ok()) {
      // Injected intake failure: the connection dies before any request
      // exists, so a clean close keeps the accounting invariant.
      Log("accept fault: " + accept_fault.ToString());
      ::close(fd);
      continue;
    }
    Status enqueue_fault = DIVA_FAIL("serve.enqueue");
    bool overflow = false;
    if (enqueue_fault.ok()) {
      MutexLock lock(queue_mutex_);
      if (queue_.size() >= options_.queue_capacity) {
        overflow = true;
      } else {
        queue_.push_back(fd);
        queue_cv_.NotifyOne();
        fd = -1;  // ownership moved to the queue
      }
    }
    if (fd >= 0) {
      if (overflow) {
        MutexLock lock(stats_mutex_);
        ++stats_.connection_overflow;
      } else {
        Log("enqueue fault: " + enqueue_fault.ToString());
      }
      ::close(fd);
    }
  }
  if (draining()) {
    double expected = 0.0;
    drain_started_at_.compare_exchange_strong(expected, MonotonicSeconds(),
                                              std::memory_order_relaxed);
  }
  // Handshakes the kernel already completed sit in the listen backlog;
  // with the acceptor gone no session will ever serve them, and their
  // peers would block forever waiting for a response. Accept and close
  // each one, then close the listener itself so later connects are
  // refused outright — both surface as retryable shed at the client.
  for (;;) {
    pollfd pending;
    pending.fd = listen_fd_;
    pending.events = POLLIN;
    pending.revents = 0;
    if (::poll(&pending, 1, 0) <= 0) break;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    {
      MutexLock lock(stats_mutex_);
      ++stats_.accepted_connections;
      ++stats_.connection_overflow;
    }
    ::close(fd);
  }
  CloseListener();
}

void Server::CloseListener() {
  int fd = listen_fd_.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
}

void Server::SessionLoop() {
  while (true) {
    int fd = -1;
    {
      MutexLock lock(queue_mutex_);
      while (queue_.empty() && !stop_.Cancelled() && !draining()) {
        queue_cv_.WaitFor(lock, 0.05);
      }
      if (!queue_.empty()) {
        fd = queue_.front();
        queue_.pop_front();
      } else {
        return;  // terminal (stop or drain) with nothing queued
      }
    }
    if (stop_.Cancelled()) {
      ::close(fd);  // hard stop: clean close
      continue;
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void Server::HandleConnection(int fd) {
  while (true) {
    if (stop_.Cancelled()) return;
    if (draining()) {
      const double started = drain_started_at_.load(std::memory_order_relaxed);
      if (started > 0.0 && (MonotonicSeconds() - started) * 1e3 >
                               options_.drain_grace_ms) {
        return;  // drain grace over: close instead of serving more
      }
    }
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, 50);
    if (ready < 0) return;
    if (ready == 0) continue;
    auto frame = ReadFrame(fd);
    if (!frame.ok()) {
      // NotFound = the peer closed between frames (normal); anything
      // else is a transport fault — either way the connection is done
      // and no request was admitted, so closing is clean.
      if (frame.status().code() != StatusCode::kNotFound) {
        Log("frame read failed: " + frame.status().ToString());
      }
      return;
    }
    auto request = ParseRequest(*frame);
    if (!request.ok()) {
      {
        MutexLock lock(stats_mutex_);
        ++stats_.protocol_errors;
      }
      if (!Respond(fd, Response::Error(request.status()))) return;
      continue;
    }
    {
      MutexLock lock(stats_mutex_);
      ++stats_.requests;
    }
    if (!HandleRequest(fd, *request)) return;
  }
}

bool Server::HandleRequest(int fd, const Request& request) {
  Response response;
  if (request.verb == "ping") {
    response.fields["server"] = "diva";
  } else if (request.verb == "stats") {
    response = HandleStats(request);
  } else if (request.verb == "fetch") {
    response = HandleFetch(request);
  } else if (request.verb == "anonymize") {
    response = HandleAnonymize(request);
  } else if (request.verb == "verify") {
    response = HandleVerify(request);
  } else if (request.verb == "update") {
    response = HandleUpdate(request);
  } else {
    response = Response::Error(Status::InvalidArgument(
        "unknown verb '" + request.verb +
        "' (ping|stats|fetch|anonymize|verify|update)"));
  }
  // A failed write ends the connection (the caller closes it): the peer
  // is left with a hangup instead of a silent socket, which its client
  // maps to a retryable shed.
  return Respond(fd, response);
}

bool Server::Respond(int fd, const Response& response) {
  Status fault = DIVA_FAIL("serve.respond");
  Status written =
      fault.ok() ? WriteFrame(fd, EncodeResponse(response)) : fault;
  MutexLock lock(stats_mutex_);
  if (written.ok()) {
    ++stats_.responses;
    return true;
  }
  ++stats_.response_failures;
  return false;
}

Response Server::AdmitAndRun(
    const Request& request,
    const std::function<Response(CancellationToken)>& run) {
  auto deadline_ms = request.IntParam("deadline_ms", -1);
  if (!deadline_ms.ok()) return Response::Error(deadline_ms.status());

  Status admission_fault = DIVA_FAIL("serve.admission");
  AdmissionDecision decision;
  if (!admission_fault.ok()) {
    decision.admit = false;
    decision.reason = "admission check failed: " + admission_fault.message();
  } else {
    decision =
        DecideAdmission(queued(), inflight(), options_.queue_capacity,
                        cost_tracker_.EstimateMs(), *deadline_ms, draining());
  }
  if (!decision.admit) {
    {
      MutexLock lock(stats_mutex_);
      ++stats_.shed;
    }
    Response response = Response::Error(Status::Unavailable(decision.reason));
    response.fields["predicted_wait_ms"] = FormatMs(decision.predicted_wait_ms);
    return response;
  }
  {
    MutexLock lock(stats_mutex_);
    ++stats_.admitted;
  }

  // In flight from here to every return below.
  struct InflightGuard {
    explicit InflightGuard(Server* server) : server(server) {
      MutexLock lock(server->inflight_mutex_);
      ++server->inflight_;
    }
    ~InflightGuard() {
      MutexLock lock(server->inflight_mutex_);
      --server->inflight_;
    }
    Server* server;
  } guard(this);

  // A force-drain may trip stop_ between admission and dispatch; skip the
  // run entirely. Only stop_ is checked: a request born over its own
  // deadline still runs and answers audited and degraded (admission.h).
  if (stop_.Cancelled()) {
    MutexLock lock(stats_mutex_);
    ++stats_.shed;
    return Response::Error(
        Status::Unavailable("request cancelled before dispatch"));
  }
  Status execute_fault = DIVA_FAIL("serve.execute");
  if (!execute_fault.ok()) return Response::Error(execute_fault);
  // The request's whole budget: its deadline (or the wedge timeout when
  // it states none), under the server's stop token.
  const int64_t budget_ms =
      *deadline_ms >= 0 ? *deadline_ms
                        : static_cast<int64_t>(options_.wedge_timeout_ms);
  CancellationToken request_token = CancellationToken::WithDeadlineAndParent(
      Deadline::AfterMillis(budget_ms), stop_);
  StopWatch watch;
  Response response = run(request_token);
  cost_tracker_.Record(watch.ElapsedMillis());
  return response;
}

Result<Server::ReadLease> Server::BeginRead(const CancellationToken& token) {
  MutexLock lock(state_mutex_);
  while (update_active_) {
    if (token.Cancelled()) {
      return Status::Unavailable(
          "cancelled while waiting for an update to finish");
    }
    state_cv_.WaitFor(lock, 0.01);
  }
  ++active_leases_;
  return ReadLease(this, base_);
}

void Server::EndRead() {
  MutexLock lock(state_mutex_);
  --active_leases_;
  state_cv_.NotifyAll();
}

Status Server::BeginUpdate(const CancellationToken& token) {
  MutexLock lock(state_mutex_);
  while (update_active_ || active_leases_ > 0) {
    if (token.Cancelled()) {
      return Status::Unavailable(
          "cancelled while waiting for exclusive served-state access");
    }
    state_cv_.WaitFor(lock, 0.01);
  }
  update_active_ = true;
  return Status::OK();
}

void Server::EndUpdate() {
  MutexLock lock(state_mutex_);
  update_active_ = false;
  state_cv_.NotifyAll();
}

Result<DivaOptions> Server::RunOptions(const Request& request,
                                       CancellationToken token) const {
  DivaOptions options;
  auto k = request.IntParam("k", static_cast<int64_t>(options.k));
  if (!k.ok()) return k.status();
  if (*k < 1) return Status::InvalidArgument("k must be >= 1");
  auto l = request.IntParam("l", 0);
  if (!l.ok()) return l.status();
  if (*l < 0) return Status::InvalidArgument("l must be >= 0 (0 = off)");
  auto t = request.DoubleParam("t", 1.0);
  if (!t.ok()) return t.status();
  // Written so NaN fails too: it would otherwise turn t-closeness off.
  if (!(*t >= 0.0 && *t <= 1.0)) {
    return Status::InvalidArgument("t must be in [0, 1] (1 = off)");
  }
  auto seed = request.IntParam("seed", static_cast<int64_t>(options_.seed));
  if (!seed.ok()) return seed.status();
  auto baseline = ParseBaseline(request.Param("baseline", "kmember"));
  if (!baseline.ok()) return baseline.status();

  options.k = static_cast<size_t>(*k);
  options.l_diversity = static_cast<size_t>(*l);
  options.t_closeness = *t;
  options.seed = static_cast<uint64_t>(*seed);
  options.baseline = *baseline;
  options.threads = options_.pipeline_threads;
  // The serving contract: results are audited before they leave the
  // process, degraded or not. The self-audit is never skipped by a
  // deadline (core/diva.cc), so a cancelled run still re-proves its
  // output before we publish and respond.
  options.audit = true;
  options.strict = false;
  options.deadline_ms = 0;  // the request token carries the budget
  options.cancel = std::move(token);
  return options;
}

Response Server::Publish(DivaResult& run, std::string label,
                         std::shared_ptr<const Relation> source, size_t k) {
  const DivaReport& report = run.report;
  const bool degraded = report.deadline_exceeded ||
                        report.baseline_degraded ||
                        report.integrate_skipped || report.privacy_truncated;
  Snapshot snapshot(std::move(run.relation));
  snapshot.label = std::move(label);
  snapshot.source = std::move(source);
  snapshot.k = k;
  snapshot.waived_constraints = report.unsatisfied;
  std::sort(snapshot.waived_constraints.begin(),
            snapshot.waived_constraints.end());
  snapshot.audited = report.audited;
  snapshot.degraded = degraded;
  const size_t rows = snapshot.relation.NumRows();
  auto published = snapshots_.Publish(std::move(snapshot));
  if (!published.ok()) return Response::Error(published.status());

  {
    MutexLock lock(stats_mutex_);
    ++stats_.snapshots_published;
    if (degraded) ++stats_.degraded;
  }
  Response response;
  response.fields["snapshot"] = std::to_string(*published);
  response.fields["rows"] = std::to_string(rows);
  response.fields["audited"] = report.audited ? "1" : "0";
  response.fields["degraded"] = degraded ? "1" : "0";
  response.fields["unsatisfied"] =
      std::to_string(report.unsatisfied.size());
  response.fields["suppressed_cells"] =
      std::to_string(report.repair_cells);
  return response;
}

Response Server::HandleAnonymize(const Request& request) {
  return AdmitAndRun(request, [&](CancellationToken token) -> Response {
    auto options = RunOptions(request, token);
    if (!options.ok()) return Response::Error(options.status());

    // The lease spans the run and its publication, so no update publishes
    // between this run's read of the base and its own publication:
    // snapshot ids stay in the order of the base versions they were
    // anonymized from.
    auto lease = BeginRead(token);
    if (!lease.ok()) return Response::Error(lease.status());
    auto result = RunDiva(lease->relation(), constraints_, *options);
    if (!result.ok()) return Response::Error(result.status());

    Response response =
        Publish(*result, request.verb + " k=" + std::to_string(options->k),
                lease->shared(), options->k);
    if (!response.ok) return response;
    const DivaReport& report = result->report;
    response.fields["deadline_exceeded"] =
        report.deadline_exceeded ? "1" : "0";
    response.fields["baseline_degraded"] =
        report.baseline_degraded ? "1" : "0";
    response.fields["integrate_skipped"] =
        report.integrate_skipped ? "1" : "0";
    response.fields["privacy_truncated"] =
        report.privacy_truncated ? "1" : "0";
    return response;
  });
}

Response Server::HandleVerify(const Request& request) {
  return AdmitAndRun(request, [&](CancellationToken /*token*/) -> Response {
    auto id = request.IntParam(
        "snapshot", static_cast<int64_t>(snapshots_.latest_id()));
    if (!id.ok()) return Response::Error(id.status());
    // The shared_ptr keeps the snapshot alive through an eviction.
    auto snapshot = snapshots_.Find(static_cast<uint64_t>(*id));
    if (!snapshot) {
      return Response::Error(Status::NotFound(
          "no snapshot " + std::to_string(*id) +
          " (latest=" + std::to_string(snapshots_.latest_id()) + ")"));
    }
    auto k = request.IntParam("k", static_cast<int64_t>(snapshot->k));
    if (!k.ok()) return Response::Error(k.status());

    // The audit replays against the base the snapshot was produced from
    // (it may predate an update); Publish always records it.
    const Relation& original = *snapshot->source;
    AuditOptions audit_options;
    audit_options.waived_constraints = snapshot->waived_constraints;
    auto audit = AuditAnonymization(original, snapshot->relation,
                                    static_cast<size_t>(*k), constraints_,
                                    audit_options);
    if (!audit.ok()) return Response::Error(audit.status());

    Response response;
    response.fields["snapshot"] = std::to_string(snapshot->id);
    response.fields["verdict"] = audit->ok() ? "pass" : "fail";
    response.fields["violations"] = std::to_string(audit->violations.size());
    response.fields["groups"] = std::to_string(audit->stats.num_groups);
    response.fields["min_group"] =
        std::to_string(audit->stats.min_group_size);
    response.fields["added_stars"] = std::to_string(audit->stats.added_stars);
    response.fields["degraded"] = snapshot->degraded ? "1" : "0";
    return response;
  });
}

Response Server::HandleFetch(const Request& request) {
  auto id = request.IntParam("snapshot",
                             static_cast<int64_t>(snapshots_.latest_id()));
  if (!id.ok()) return Response::Error(id.status());
  // The shared_ptr keeps the snapshot alive while its CSV is written
  // out, even if a publish evicts it meanwhile.
  auto snapshot = snapshots_.Find(static_cast<uint64_t>(*id));
  if (!snapshot) {
    return Response::Error(
        Status::NotFound("no snapshot " + std::to_string(*id)));
  }
  std::ostringstream csv;
  Status written = WriteCsv(snapshot->relation, csv);
  if (!written.ok()) return Response::Error(written);
  Response response;
  response.fields["snapshot"] = std::to_string(snapshot->id);
  response.fields["rows"] = std::to_string(snapshot->relation.NumRows());
  response.fields["audited"] = snapshot->audited ? "1" : "0";
  response.fields["degraded"] = snapshot->degraded ? "1" : "0";
  response.body = csv.str();
  return response;
}

Response Server::HandleUpdate(const Request& request) {
  return AdmitAndRun(request, [&](CancellationToken token) -> Response {
    if (request.body.empty()) {
      return Response::Error(Status::InvalidArgument(
          "update needs a delta body: `- <row>` / `+ <csv row>` lines "
          "(docs/serving.md)"));
    }
    auto delta = ParseDeltaFile(request.body);
    if (!delta.ok()) return Response::Error(delta.status());

    auto options = RunOptions(request, token);
    if (!options.ok()) return Response::Error(options.status());
    // Incremental so the run captures a pipeline snapshot the next delta
    // can chain from (it never changes response bytes). An update whose
    // params differ from the prior update's simply finds every component
    // dirty — correct, just cold-cost.
    options->incremental = true;

    Status exclusive = BeginUpdate(token);
    if (!exclusive.ok()) return Response::Error(exclusive);
    Response response = RunUpdate(*delta, *options);
    EndUpdate();
    return response;
  });
}

Response Server::RunUpdate(const DeltaBatch& delta,
                           const DivaOptions& options) {
  std::shared_ptr<const Relation> base;
  std::shared_ptr<const PipelineSnapshot> prior;
  {
    MutexLock lock(state_mutex_);
    base = base_;
    prior = prior_;
  }

  // Incremental when the last update's snapshot chains; cold otherwise
  // (first update, or the chain was reset by a degraded run). Either
  // path produces bytes identical to a cold run on the post-delta
  // relation (core/incremental.h).
  const bool incremental = prior != nullptr;
  // The post-delta relation the cold path runs on.
  std::shared_ptr<const Relation> post;
  uint64_t shards_reused = 0;
  Result<DivaResult> run = [&]() -> Result<DivaResult> {
    if (incremental) {
      std::vector<counters::Sample> before = counters::Snapshot();
      auto replayed = ApplyDelta(*prior, delta, options);
      if (replayed.ok()) {
        for (const counters::Sample& sample :
             counters::Delta(before, counters::Snapshot())) {
          if (sample.name == "incremental.shards_reused") {
            shards_reused = sample.value;
          }
        }
      }
      return replayed;
    }
    DIVA_ASSIGN_OR_RETURN(Relation applied, ApplyDeltaToRelation(*base, delta));
    post = std::make_shared<const Relation>(std::move(applied));
    return RunDiva(*post, constraints_, options);
  }();
  if (!run.ok()) return Response::Error(run.status());

  // The base the swapped state serves next: the captured snapshot's
  // input whenever the run produced a snapshot (shared, so the daemon
  // holds one copy of it, and a retained published snapshot keeps only
  // that relation, not the pipeline snapshot), recomputed otherwise —
  // ApplyDeltaToRelation is deterministic, so both name the same
  // relation.
  if (run->snapshot != nullptr) {
    post = run->snapshot->input;
  } else if (post == nullptr) {
    auto applied = ApplyDeltaToRelation(*base, delta);
    if (!applied.ok()) return Response::Error(applied.status());
    post = std::make_shared<const Relation>(std::move(*applied));
  }

  // Publish-or-refuse: nothing below mutates served state until the
  // audited snapshot is actually in the store. Any failure — audit or
  // publication fault — leaves the old base (and the old reuse chain)
  // serving.
  if (!run->report.audited) {
    return Response::Error(
        Status::Internal("refusing to publish an unaudited update"));
  }
  const size_t rows_deleted = delta.RowsDeleted();
  Response response = Publish(
      *run,
      "update -" + std::to_string(rows_deleted) + " +" +
          std::to_string(delta.inserted.size()) +
          " k=" + std::to_string(options.k),
      post, options.k);
  if (!response.ok) return response;

  {
    MutexLock lock(state_mutex_);
    base_ = std::move(post);
    prior_ = run->snapshot;  // null resets the chain to cold
  }
  {
    MutexLock lock(stats_mutex_);
    ++stats_.updates;
  }
  response.fields["rows_deleted"] = std::to_string(rows_deleted);
  response.fields["rows_inserted"] = std::to_string(delta.inserted.size());
  response.fields["incremental"] = incremental ? "1" : "0";
  response.fields["shards_reused"] = std::to_string(shards_reused);
  return response;
}

Response Server::HandleStats(const Request&) {
  ServerStats snapshot = stats();
  Response response;
  response.fields["accepted_connections"] =
      std::to_string(snapshot.accepted_connections);
  response.fields["connection_overflow"] =
      std::to_string(snapshot.connection_overflow);
  response.fields["requests"] = std::to_string(snapshot.requests);
  response.fields["protocol_errors"] =
      std::to_string(snapshot.protocol_errors);
  response.fields["admitted"] = std::to_string(snapshot.admitted);
  response.fields["shed"] = std::to_string(snapshot.shed);
  response.fields["responses"] = std::to_string(snapshot.responses);
  response.fields["response_failures"] =
      std::to_string(snapshot.response_failures);
  response.fields["degraded"] = std::to_string(snapshot.degraded);
  response.fields["snapshots_published"] =
      std::to_string(snapshot.snapshots_published);
  response.fields["updates"] = std::to_string(snapshot.updates);
  response.fields["snapshots"] = std::to_string(snapshots_.size());
  response.fields["snapshots_evicted"] = std::to_string(snapshots_.evicted());
  response.fields["queued"] = std::to_string(queued());
  response.fields["inflight"] = std::to_string(inflight());
  response.fields["cost_estimate_ms"] =
      FormatMs(cost_tracker_.EstimateMs());
  response.fields["draining"] = draining() ? "1" : "0";
  return response;
}

}  // namespace serve
}  // namespace diva
