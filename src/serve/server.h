#ifndef DIVA_SERVE_SERVER_H_
#define DIVA_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "constraint/diversity_constraint.h"
#include "core/diva.h"
#include "core/incremental.h"
#include "relation/relation.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace diva {
namespace serve {

/// Knobs of diva_serverd. Defaults favor tests (ephemeral port, small
/// queue); the daemon maps its command line onto this struct.
struct ServerOptions {
  /// TCP listen address. Loopback by default: the protocol has no auth.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back via Server::port()).
  int port = 0;
  /// Session workers — concurrent connections being served.
  size_t sessions = 2;
  /// Accepted connections allowed to wait for a session; beyond this the
  /// acceptor sheds by closing the connection cleanly.
  size_t queue_capacity = 16;
  /// Published results retained. Publishing past this evicts the oldest
  /// snapshot (serve/snapshot.h); a reader already holding it keeps it.
  size_t snapshot_capacity = 64;
  /// Admission cost model: the estimate before any request finished.
  double initial_cost_ms = 50.0;
  /// Wall budget of a request that states no deadline: its token is born
  /// with this deadline, so a wedged run degrades through the anytime
  /// pipeline and returns (the response is still audited).
  double wedge_timeout_ms = 10000.0;
  /// How long a drain (SIGTERM/Stop) waits for queued and in-flight work
  /// before force-cancelling what remains.
  double drain_grace_ms = 2000.0;
  /// DivaOptions::threads for request pipelines. The deterministic pool
  /// is process-global, so every request runs at one width; 1 keeps
  /// concurrent sessions from thrashing SetParallelThreads.
  size_t pipeline_threads = 1;
  /// Default seed for request pipelines (requests may override per call).
  uint64_t seed = 42;
  /// Optional sink for one-line operational messages. Null = silent.
  /// Called from server threads; must be thread-safe.
  std::function<void(const std::string&)> logger;
};

/// Monotone request accounting, copyable snapshot. The chaos-suite
/// invariant is `requests == responses + response_failures` after
/// quiesce: every parsed request ends in a terminal response or a clean
/// close, no matter which failpoint fired.
struct ServerStats {
  uint64_t accepted_connections = 0;
  /// Connections shed before any read because the wait queue was full.
  uint64_t connection_overflow = 0;
  /// Frames parsed into a request (any verb).
  uint64_t requests = 0;
  /// Unparsable frames answered with an error response.
  uint64_t protocol_errors = 0;
  uint64_t admitted = 0;
  /// Requests refused by admission control (kUnavailable response).
  uint64_t shed = 0;
  /// Terminal responses successfully written.
  uint64_t responses = 0;
  /// Responses whose write failed; the connection was closed instead.
  uint64_t response_failures = 0;
  /// Responses that carried a degradation flag.
  uint64_t degraded = 0;
  uint64_t snapshots_published = 0;
  /// `update` requests that published (the served base was swapped).
  uint64_t updates = 0;
};

/// The anonymization service: loads one relation at construction, serves
/// anonymize / verify / fetch / stats / ping / update requests over the
/// framed protocol (serve/protocol.h), with admission control ahead of
/// the queue, per-request deadlines degrading through the anytime
/// pipeline (every response still audited), and graceful drain. Each
/// request's budget lives on its own token: a deadline (the stated one,
/// or ServerOptions::wedge_timeout_ms) whose parent is the server's stop
/// token, which Stop trips once the drain grace runs out. Threading: one
/// acceptor and `sessions` session workers, hosted on a TaskGroup
/// (common/parallel.h).
///
/// `update` mutates the served base through a row delta (core/
/// incremental.h): it re-anonymizes the post-delta relation — reusing
/// the prior run's clean components when a pipeline snapshot chains —
/// audits, publishes-or-refuses, and only then swaps the base the other
/// verbs see. `anonymize` holds a read lease from its read of the base
/// through its publication and an update waits leases out, so snapshot
/// ids follow the order of the base versions they were anonymized from.
class Server {
 public:
  Server(Relation base, ConstraintSet constraints, ServerOptions options);

  /// Stops the server (drain + force-cancel past the grace) if still
  /// running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the service threads.
  [[nodiscard]] Status Start();

  /// The bound TCP port (after Start); 0 before.
  int port() const { return port_; }

  /// Async-signal-safe drain request: one relaxed atomic store, nothing
  /// else — callable from a SIGTERM/SIGINT handler. Service loops notice
  /// within one poll interval: the acceptor stops accepting, queued and
  /// in-flight work gets ServerOptions::drain_grace_ms to finish, new
  /// requests are refused with kUnavailable.
  void RequestDrain() { draining_.store(true, std::memory_order_relaxed); }

  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Drains (if not already draining), waits out the grace, force-cancels
  /// stragglers and joins every service thread. Idempotent.
  void Stop();

  ServerStats stats() const;

  /// Requests currently being executed (0 after quiesce — the chaos
  /// suite's leak check).
  size_t inflight() const;

  /// Connections waiting for a session worker.
  size_t queued() const;

  const SnapshotStore& snapshots() const { return snapshots_; }

 private:
  void AcceptLoop();
  void SessionLoop();

  /// Serves one connection until the peer closes, a fatal frame error, a
  /// hard stop, or the drain grace runs out.
  void HandleConnection(int fd);

  /// Dispatches one parsed request and writes its terminal response.
  /// Returns false when the response write failed — the connection must
  /// be closed (a peer left on a silent socket would wait out its whole
  /// timeout for a response that is never coming).
  bool HandleRequest(int fd, const Request& request);

  /// A shared lease on the served state: holds the base relation alive
  /// and keeps `update` out until destroyed. Move-only.
  class ReadLease {
   public:
    ReadLease() = default;
    ReadLease(ReadLease&& other) noexcept
        : server_(other.server_), relation_(std::move(other.relation_)) {
      other.server_ = nullptr;
    }
    ReadLease& operator=(ReadLease&& other) noexcept {
      if (this != &other) {
        if (server_ != nullptr) server_->EndRead();
        server_ = other.server_;
        relation_ = std::move(other.relation_);
        other.server_ = nullptr;
      }
      return *this;
    }
    ReadLease(const ReadLease&) = delete;
    ReadLease& operator=(const ReadLease&) = delete;
    ~ReadLease() {
      if (server_ != nullptr) server_->EndRead();
    }
    const Relation& relation() const { return *relation_; }
    const std::shared_ptr<const Relation>& shared() const { return relation_; }

   private:
    friend class Server;
    ReadLease(Server* server, std::shared_ptr<const Relation> relation)
        : server_(server), relation_(std::move(relation)) {}
    Server* server_ = nullptr;
    std::shared_ptr<const Relation> relation_;
  };

  /// Takes a read lease on the served state, waiting out an in-progress
  /// update. Fails kUnavailable when `token` trips during the wait.
  [[nodiscard]] Result<ReadLease> BeginRead(const CancellationToken& token);
  void EndRead();

  /// Claims exclusive served-state access for an update: blocks new read
  /// leases and waits out live ones. Must be paired with EndUpdate.
  [[nodiscard]] Status BeginUpdate(const CancellationToken& token);
  void EndUpdate();

  Response HandleAnonymize(const Request& request);
  Response HandleVerify(const Request& request);
  Response HandleFetch(const Request& request);
  Response HandleStats(const Request& request);
  Response HandleUpdate(const Request& request);

  /// The work verbs' pipeline options: parses the k, l, t, seed and
  /// baseline params and applies the serving contract (pipeline width,
  /// self-audit on, never strict, `token` as the only budget).
  [[nodiscard]] Result<DivaOptions> RunOptions(const Request& request,
                                               CancellationToken token) const;

  /// Publishes a work verb's run: moves `run.relation` into a snapshot
  /// produced from `source`, counts it in the stats, and answers with the
  /// fields both work verbs share (snapshot, rows, audited, degraded,
  /// unsatisfied, suppressed_cells). An error response when the store
  /// refuses the snapshot.
  Response Publish(DivaResult& run, std::string label,
                   std::shared_ptr<const Relation> source, size_t k);

  /// The body of HandleUpdate, run between BeginUpdate/EndUpdate:
  /// re-anonymizes the post-delta relation (incrementally when a prior
  /// snapshot chains), audits, publishes-or-refuses, and swaps the
  /// served state only after publication succeeded.
  Response RunUpdate(const DeltaBatch& delta, const DivaOptions& options);

  /// Admission + execution wrapper shared by the work verbs.
  Response AdmitAndRun(const Request& request,
                       const std::function<Response(CancellationToken)>& run);

  /// Writes `response` and returns whether the write succeeded. A failed
  /// write is recorded (response_failures) and the caller must close the
  /// connection. Failpoint: serve.respond.
  bool Respond(int fd, const Response& response);

  /// Idempotent close of the listen socket (see listen_fd_).
  void CloseListener();

  void Log(const std::string& message) const;

  const ConstraintSet constraints_;
  const ServerOptions options_;

  /// Served state. `base_` is what anonymize runs against; an
  /// `update` swaps it for the post-delta relation and caches the run's
  /// pipeline snapshot so the next delta re-colors only dirty
  /// components. Updates are exclusive (update_active_); an anonymize
  /// holds a read lease (active_leases_) across its run and publication,
  /// so no update publishes in between and snapshot ids stay in base
  /// version order.
  mutable Mutex state_mutex_;
  CondVar state_cv_;
  size_t active_leases_ DIVA_GUARDED_BY(state_mutex_) = 0;
  bool update_active_ DIVA_GUARDED_BY(state_mutex_) = false;
  std::shared_ptr<const Relation> base_ DIVA_GUARDED_BY(state_mutex_);
  /// Reuse state of the last update's run; null until an update captures
  /// one (and after a degraded update — the chain then restarts cold).
  std::shared_ptr<const PipelineSnapshot> prior_ DIVA_GUARDED_BY(state_mutex_);
  SnapshotStore snapshots_;
  CostTracker cost_tracker_;

  std::atomic<bool> draining_{false};
  /// MonotonicSeconds when the acceptor (or Stop) first observed
  /// draining_ (0 = not yet); the drain grace counts from here.
  std::atomic<double> drain_started_at_{0.0};
  /// Parent of every request token; Stop trips it when the drain grace
  /// runs out, cancelling whatever is still in flight. The acceptor and
  /// the sessions read it as the hard-stop flag.
  const CancellationToken stop_ = CancellationToken::Manual();

  /// Closed by whichever of AcceptLoop (drain/stop exit) or Stop gets
  /// there first; the exchange makes the close idempotent. Closing the
  /// listener at drain resets backlogged handshakes and refuses new
  /// connects immediately, instead of letting peers wait on a socket no
  /// session will ever serve.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;

  mutable Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<int> queue_ DIVA_GUARDED_BY(queue_mutex_);

  mutable Mutex inflight_mutex_;
  size_t inflight_ DIVA_GUARDED_BY(inflight_mutex_) = 0;

  mutable Mutex stats_mutex_;
  ServerStats stats_ DIVA_GUARDED_BY(stats_mutex_);

  std::unique_ptr<TaskGroup> threads_;
  std::vector<uint64_t> tickets_;
  bool stopped_ = false;  // Stop() ran to completion (main thread only)
};

}  // namespace serve
}  // namespace diva

#endif  // DIVA_SERVE_SERVER_H_
