// Tests for the serving subsystem (src/serve/): protocol framing and
// encoding, the pure admission policy, crash-safe snapshot publication,
// client retry pacing (common/backoff.h), and the server end to end over
// a loopback socket — including the deadline edge cases: a 0 ms deadline
// admitted on an idle server still yields an audited degraded response,
// a request whose token is born past its wedge timeout degrades instead
// of hanging, and a run still going when the drain grace ends is
// cancelled through the server's stop token. Fault-injection sweeps live
// in serve_chaos_test.cc.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/backoff.h"
#include "common/failpoint.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "constraint/generator.h"
#include "datagen/profiles.h"
#include "gtest/gtest.h"
#include "relation/csv.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "tests/test_util.h"

namespace diva {
namespace serve {
namespace {

using diva::testing::MedicalConstraints;
using diva::testing::MedicalRelation;
using diva::testing::MedicalSchema;

// ---------------------------------------------------------------- protocol

TEST(ServeProtocolTest, RequestRoundTripsThroughEncodeAndParse) {
  Request request;
  request.verb = "anonymize";
  request.params["k"] = "4";
  request.params["deadline_ms"] = "250";
  request.body = "line one\nline two\n";

  auto parsed = ParseRequest(EncodeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->verb, "anonymize");
  EXPECT_EQ(parsed->Param("k", ""), "4");
  EXPECT_EQ(parsed->Param("deadline_ms", ""), "250");
  EXPECT_EQ(parsed->Param("missing", "fallback"), "fallback");
  EXPECT_EQ(parsed->body, request.body);

  auto deadline = parsed->IntParam("deadline_ms", -1);
  ASSERT_TRUE(deadline.ok());
  EXPECT_EQ(*deadline, 250);
  auto fallback = parsed->IntParam("nope", -1);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, -1);
}

TEST(ServeProtocolTest, UnparsableIntParamIsAnErrorNotAFallback) {
  Request request;
  request.verb = "anonymize";
  request.params["k"] = "four";
  EXPECT_FALSE(request.IntParam("k", 1).ok());
}

TEST(ServeProtocolTest, ErrorResponseRoundTripsStatusWithSpaces) {
  Response error = Response::Error(
      Status::Unavailable("queue full (16/16), try again later"));
  auto parsed = ParseResponse(EncodeResponse(error));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->code, StatusCode::kUnavailable);
  Status status = parsed->ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("queue full (16/16)"), std::string::npos);
}

TEST(ServeProtocolTest, OkResponseCarriesFieldsAndBody) {
  Response response;
  response.fields["snapshot"] = "7";
  response.fields["audited"] = "1";
  response.body = "GEN,AGE\nFemale,30\n";
  auto parsed = ParseResponse(EncodeResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->Field("snapshot", ""), "7");
  EXPECT_EQ(parsed->Field("audited", "0"), "1");
  EXPECT_EQ(parsed->body, response.body);
}

TEST(ServeProtocolTest, StatusCodeNamesRoundTripAndUnknownMapsToInternal) {
  EXPECT_EQ(ParseStatusCodeName("Unavailable"), StatusCode::kUnavailable);
  EXPECT_EQ(ParseStatusCodeName("IoError"), StatusCode::kIoError);
  EXPECT_EQ(ParseStatusCodeName("NoSuchCode"), StatusCode::kInternal);
}

// ------------------------------------------------------------- frame I/O

/// A connected AF_UNIX stream pair; closes whatever ends are still open.
struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer = fds[0];
    reader = fds[1];
  }
  ~SocketPair() {
    CloseWriter();
    if (reader >= 0) ::close(reader);
  }
  void CloseWriter() {
    if (writer >= 0) ::close(writer);
    writer = -1;
  }
  /// Raw bytes, bypassing WriteFrame (for truncated frames).
  void SendRaw(const std::string& bytes) {
    ASSERT_EQ(::send(writer, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  int writer = -1;
  int reader = -1;
};

std::string BigEndianLength(uint32_t size) {
  return {static_cast<char>(size >> 24), static_cast<char>(size >> 16),
          static_cast<char>(size >> 8), static_cast<char>(size)};
}

TEST(ServeProtocolTest, ZeroLengthPayloadRoundTrips) {
  SocketPair pair;
  ASSERT_TRUE(WriteFrame(pair.writer, "").ok());
  ASSERT_TRUE(WriteFrame(pair.writer, "after").ok());
  auto empty = ReadFrame(pair.reader);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(*empty, "");
  auto next = ReadFrame(pair.reader);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, "after");
}

TEST(ServeProtocolTest, FrameOfExactlyMaxBytesPassesOneMoreIsRejected) {
  SocketPair pair;
  const size_t max_bytes = 100;
  ASSERT_TRUE(WriteFrame(pair.writer, std::string(max_bytes, 'x')).ok());
  auto at_cap = ReadFrame(pair.reader, max_bytes);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(*at_cap, std::string(max_bytes, 'x'));

  ASSERT_TRUE(WriteFrame(pair.writer, std::string(max_bytes + 1, 'y')).ok());
  auto over_cap = ReadFrame(pair.reader, max_bytes);
  ASSERT_FALSE(over_cap.ok());
  EXPECT_EQ(over_cap.status().code(), StatusCode::kIoError);
  EXPECT_NE(over_cap.status().message().find("cap"), std::string::npos);
}

TEST(ServeProtocolTest, EofBeforeHeaderIsNotFound) {
  SocketPair pair;
  pair.CloseWriter();
  auto frame = ReadFrame(pair.reader);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
}

TEST(ServeProtocolTest, EofMidHeaderIsIoError) {
  SocketPair pair;
  pair.SendRaw(BigEndianLength(5).substr(0, 2));
  pair.CloseWriter();
  auto frame = ReadFrame(pair.reader);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIoError);
  EXPECT_NE(frame.status().message().find("header"), std::string::npos);
}

TEST(ServeProtocolTest, EofMidBodyIsIoError) {
  SocketPair pair;
  pair.SendRaw(BigEndianLength(10) + "abc");
  pair.CloseWriter();
  auto frame = ReadFrame(pair.reader);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIoError);
  EXPECT_NE(frame.status().message().find("body"), std::string::npos);
}

void IgnoreSignal(int) {}

TEST(ServeProtocolTest, LargeFrameRoundTripsThroughInterruptedWrites) {
  // 8 MiB through a socket buffer of a few hundred KiB: the gathered
  // write blocks many times. A ticker interrupts it with a no-restart
  // signal, so sendmsg returns short counts (resumed mid-iovec) and
  // EINTR (retried) — the paths a plain blocking write never takes.
  const size_t size = size_t{8} << 20;
  std::string payload(size, '\0');
  Rng rng(13);
  for (char& c : payload) c = static_cast<char>(rng.Next() & 0xff);

  struct sigaction action;
  struct sigaction previous;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked sendmsg calls return
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  SocketPair pair;
  Result<std::string> received = Status::Internal("reader did not run");
  // Reader and ticker must run beside the blocking write.
  // analyze: allow-raw-thread
  std::thread reader([&] {
    // Only the writer thread takes the signal.
    sigset_t blocked;
    sigemptyset(&blocked);
    sigaddset(&blocked, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &blocked, nullptr);
    received = ReadFrame(pair.reader);
  });
  const pthread_t writer = pthread_self();
  std::atomic<bool> written{false};
  // analyze: allow-raw-thread — the ticker runs beside the blocking write
  std::thread ticker([&] {
    while (!written.load(std::memory_order_acquire)) {
      pthread_kill(writer, SIGUSR1);
      std::this_thread::yield();
    }
  });
  Status status = WriteFrame(pair.writer, payload);
  written.store(true, std::memory_order_release);
  ticker.join();
  reader.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);

  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  ASSERT_EQ(received->size(), payload.size());
  EXPECT_TRUE(*received == payload) << "payload bytes differ";
}

// ---------------------------------------------------------------- admission

TEST(ServeAdmissionTest, IdleServerAdmitsEvenAnExpiredDeadline) {
  // predicted wait excludes the request's own service time: an empty
  // server must admit a 0 ms deadline and let the anytime pipeline
  // produce the audited degraded response.
  AdmissionDecision decision = DecideAdmission(
      /*queued=*/0, /*inflight=*/0, /*max_queue=*/4,
      /*cost_estimate_ms=*/50.0, /*deadline_ms=*/0, /*draining=*/false);
  EXPECT_TRUE(decision.admit);
  EXPECT_EQ(decision.predicted_wait_ms, 0.0);
}

TEST(ServeAdmissionTest, BacklogTimesCostShedsDoomedDeadlines) {
  AdmissionDecision decision = DecideAdmission(
      /*queued=*/2, /*inflight=*/1, /*max_queue=*/8,
      /*cost_estimate_ms=*/100.0, /*deadline_ms=*/250, /*draining=*/false);
  EXPECT_FALSE(decision.admit);
  EXPECT_DOUBLE_EQ(decision.predicted_wait_ms, 300.0);
  EXPECT_NE(decision.reason.find("deadline"), std::string::npos);

  // The same backlog admits a request with budget to spare.
  EXPECT_TRUE(DecideAdmission(2, 1, 8, 100.0, 1000, false).admit);
  // ... and one with no deadline at all.
  EXPECT_TRUE(DecideAdmission(2, 1, 8, 100.0, -1, false).admit);
}

TEST(ServeAdmissionTest, DrainingAndQueueFullTakePrecedence) {
  AdmissionDecision draining = DecideAdmission(0, 0, 4, 1.0, -1, true);
  EXPECT_FALSE(draining.admit);
  EXPECT_NE(draining.reason.find("drain"), std::string::npos);

  AdmissionDecision full = DecideAdmission(4, 0, 4, 1.0, -1, false);
  EXPECT_FALSE(full.admit);
  EXPECT_NE(full.reason.find("queue full"), std::string::npos);
}

TEST(ServeAdmissionTest, CostTrackerConvergesOnObservedCost) {
  CostTracker tracker(/*initial_ms=*/50.0);
  EXPECT_DOUBLE_EQ(tracker.EstimateMs(), 50.0);
  tracker.Record(150.0);
  EXPECT_DOUBLE_EQ(tracker.EstimateMs(), 80.0);  // 0.3 * 150 + 0.7 * 50
  for (int i = 0; i < 32; ++i) tracker.Record(10.0);
  EXPECT_NEAR(tracker.EstimateMs(), 10.0, 1.0);
}

// ---------------------------------------------------------------- snapshots

TEST(ServeSnapshotTest, PublishAssignsDenseIdsAndFindsBack) {
  SnapshotStore store(/*capacity=*/4);
  Snapshot first(MedicalRelation());
  first.k = 2;
  first.audited = true;
  auto id1 = store.Publish(std::move(first));
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id1, 1u);

  Snapshot second(MedicalRelation());
  second.audited = true;
  auto id2 = store.Publish(std::move(second));
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, 2u);
  EXPECT_EQ(store.latest_id(), 2u);
  EXPECT_EQ(store.size(), 2u);

  auto found = store.Find(1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->k, 2u);
  EXPECT_TRUE(found->audited);
  EXPECT_EQ(store.Find(99), nullptr);
}

TEST(ServeSnapshotTest, FullStoreEvictsOldestInsteadOfRefusing) {
  SnapshotStore store(/*capacity=*/2);
  for (uint64_t i = 1; i <= 3; ++i) {
    Snapshot snapshot(MedicalRelation());
    snapshot.audited = true;
    auto id = store.Publish(std::move(snapshot));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, i);
  }
  // The third publish retired #1 (the oldest); ids stay dense.
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evicted(), 1u);
  EXPECT_EQ(store.Find(1), nullptr);
  EXPECT_NE(store.Find(2), nullptr);
  EXPECT_NE(store.Find(3), nullptr);
  EXPECT_EQ(store.latest_id(), 3u);
}

TEST(ServeSnapshotTest, EvictedSnapshotStillStreamsItsFullCsvToItsHolder) {
  // What `fetch` relies on: the shared_ptr it found keeps the snapshot
  // alive through an eviction, so the CSV it writes out is whole.
  SnapshotStore store(/*capacity=*/1);
  Snapshot first(MedicalRelation());
  first.audited = true;
  ASSERT_TRUE(store.Publish(std::move(first)).ok());
  std::ostringstream expected;
  ASSERT_TRUE(WriteCsv(MedicalRelation(), expected).ok());

  std::shared_ptr<const Snapshot> held = store.Find(1);
  ASSERT_NE(held, nullptr);
  Snapshot second(MedicalRelation());
  second.audited = true;
  ASSERT_TRUE(store.Publish(std::move(second)).ok());
  EXPECT_EQ(store.Find(1), nullptr);
  EXPECT_EQ(store.evicted(), 1u);

  std::ostringstream streamed;
  ASSERT_TRUE(WriteCsv(held->relation, streamed).ok());
  EXPECT_EQ(streamed.str(), expected.str());
  EXPECT_EQ(held->id, 1u);
}

TEST(ServeSnapshotTest, InjectedPublishFaultLeavesStoreUntouched) {
  SnapshotStore store(/*capacity=*/4);
  Snapshot first(MedicalRelation());
  first.audited = true;
  ASSERT_TRUE(store.Publish(std::move(first)).ok());

  failpoint::Reset();
  failpoint::Arm("serve.publish", StatusCode::kIoError);
  Snapshot doomed(MedicalRelation());
  doomed.audited = true;
  auto failed = store.Publish(std::move(doomed));
  failpoint::Reset();

  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  // Crash-safe publication: the fault fired before any mutation, so the
  // store is exactly as it was — same size, same latest id, and the next
  // publish continues the dense id sequence.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.latest_id(), 1u);
  Snapshot next(MedicalRelation());
  next.audited = true;
  auto id = store.Publish(std::move(next));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2u);
}

// ---------------------------------------------------------------- backoff

TEST(ServeBackoffTest, LadderIsDeterministicJitteredAndCapped) {
  BackoffOptions options;
  options.initial_ms = 10.0;
  options.max_ms = 80.0;
  options.multiplier = 2.0;
  options.jitter = 0.5;
  options.max_retries = 6;

  Backoff a(options, /*seed=*/7);
  Backoff b(options, /*seed=*/7);
  std::vector<double> delays;
  double ceiling = 10.0;
  for (size_t i = 0; i < options.max_retries; ++i) {
    auto delay_a = a.NextDelayMs();
    auto delay_b = b.NextDelayMs();
    ASSERT_TRUE(delay_a.has_value());
    ASSERT_TRUE(delay_b.has_value());
    // Same seed, same schedule — the loadgen's replays are reproducible.
    EXPECT_DOUBLE_EQ(*delay_a, *delay_b);
    EXPECT_GE(*delay_a, ceiling * (1.0 - options.jitter));
    EXPECT_LE(*delay_a, ceiling);
    delays.push_back(*delay_a);
    ceiling = std::min(ceiling * options.multiplier, options.max_ms);
  }
  // The allowance is spent; Reset starts the ladder over.
  EXPECT_FALSE(a.NextDelayMs().has_value());
  EXPECT_EQ(a.retries(), options.max_retries);
  a.Reset();
  auto fresh = a.NextDelayMs();
  ASSERT_TRUE(fresh.has_value());
  EXPECT_LE(*fresh, options.initial_ms);
}

TEST(ServeBackoffTest, RetryBudgetDrainsAndRefills) {
  RetryBudget budget(/*deposit_per_call=*/0.5, /*initial_tokens=*/1.0,
                     /*max_tokens=*/2.0);
  EXPECT_TRUE(budget.TryWithdrawRetry());   // spends the initial token
  EXPECT_FALSE(budget.TryWithdrawRetry());  // empty: retries refused
  budget.RecordCall();
  EXPECT_FALSE(budget.TryWithdrawRetry());  // 0.5 < 1 whole token
  budget.RecordCall();
  EXPECT_TRUE(budget.TryWithdrawRetry());
  for (int i = 0; i < 100; ++i) budget.RecordCall();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);  // capped
}

// ---------------------------------------------------------------- server e2e

ServerOptions TestOptions() {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.sessions = 2;
  options.queue_capacity = 4;
  options.drain_grace_ms = 2000.0;
  return options;
}

TEST(ServeServerTest, ServesPingAnonymizeVerifyFetchAndStats) {
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Request ping;
  ping.verb = "ping";
  auto pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok);

  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "2";
  auto published = client->Call(anonymize);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  ASSERT_TRUE(published->ok) << published->ToStatus().ToString();
  EXPECT_EQ(published->Field("audited", "0"), "1");
  EXPECT_EQ(published->Field("snapshot", ""), "1");
  EXPECT_EQ(published->Field("rows", ""), "10");

  Request verify;
  verify.verb = "verify";
  verify.params["snapshot"] = "1";
  auto verdict = client->Call(verify);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  ASSERT_TRUE(verdict->ok) << verdict->ToStatus().ToString();
  // The server's own audit passed pre-publish, so the replay must too.
  EXPECT_EQ(verdict->Field("verdict", ""), "pass");

  Request fetch;
  fetch.verb = "fetch";
  fetch.params["snapshot"] = "1";
  auto fetched = client->Call(fetch);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  ASSERT_TRUE(fetched->ok) << fetched->ToStatus().ToString();
  EXPECT_FALSE(fetched->body.empty());

  Request stats;
  stats.verb = "stats";
  auto report = client->Call(stats);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ok);
  EXPECT_EQ(report->Field("snapshots_published", ""), "1");
  EXPECT_EQ(report->Field("protocol_errors", ""), "0");
  EXPECT_EQ(report->Field("draining", ""), "0");

  server.Stop();
  EXPECT_EQ(server.inflight(), 0u);
  ServerStats final_stats = server.stats();
  EXPECT_EQ(final_stats.requests + final_stats.protocol_errors,
            final_stats.responses + final_stats.response_failures);
}

TEST(ServeServerTest, OutOfRangePortIsRejectedBeforeBinding) {
  // A port truncated to 16 bits would bind the wrong port without error:
  // 65536 an ephemeral one, 70000 port 4464.
  for (int port : {-1, 65536, 70000}) {
    ServerOptions options = TestOptions();
    options.port = port;
    Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                  options);
    Status started = server.Start();
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument) << port;
    EXPECT_NE(started.message().find("outside [0, 65535]"), std::string::npos)
        << started.ToString();
    EXPECT_EQ(server.port(), 0) << "port " << port << " was bound";
  }
}

double MedianCallMillis(Client* client, const Request& request, int calls) {
  std::vector<double> millis;
  for (int i = 0; i < calls; ++i) {
    StopWatch watch;
    auto response = client->Call(request);
    millis.push_back(watch.ElapsedMillis());
    EXPECT_TRUE(response.ok() && response->ok)
        << request.verb << " call " << i << " failed";
  }
  std::sort(millis.begin(), millis.end());
  return millis[millis.size() / 2];
}

TEST(ServeServerTest, RoundTripsDoNotStallOnDelayedAcks) {
  // A frame sent as two writes (or one without TCP_NODELAY) on a
  // request/response connection waits for the peer's delayed ACK:
  // >= 40 ms per round trip on Linux. Loopback round trips are well
  // under 1 ms, so 20 ms separates the two even under sanitizers.
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Request ping;
  ping.verb = "ping";
  EXPECT_LT(MedianCallMillis(&*client, ping, 50), 20.0);

  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "2";
  auto published = client->Call(anonymize);
  ASSERT_TRUE(published.ok() && published->ok);
  Request fetch;
  fetch.verb = "fetch";
  fetch.params["snapshot"] = published->Field("snapshot", "");
  auto fetched = client->Call(fetch);
  ASSERT_TRUE(fetched.ok() && fetched->ok);
  EXPECT_FALSE(fetched->body.empty());  // the CSV rides in the frame
  EXPECT_LT(MedianCallMillis(&*client, fetch, 50), 20.0);
  server.Stop();
}

TEST(ServeServerTest, UnknownVerbAndBadParamsAreErrorsNotDisconnects) {
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Request bogus;
  bogus.verb = "transmogrify";
  auto response = client->Call(bogus);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);

  Request bad_k;
  bad_k.verb = "anonymize";
  bad_k.params["k"] = "banana";
  auto rejected = client->Call(bad_k);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_FALSE(rejected->ok);

  // The connection survived both errors.
  Request ping;
  ping.verb = "ping";
  auto pong = client->Call(ping);
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok);
  server.Stop();
}

TEST(ServeServerTest, FetchOfUnknownSnapshotIsNotFound) {
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Request fetch;
  fetch.verb = "fetch";
  fetch.params["snapshot"] = "42";
  auto response = client->Call(fetch);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, StatusCode::kNotFound);
  server.Stop();
}

/// Medical Sigma with two conflict-graph components, so an update's
/// run captures a snapshot and a second update chains from it.
ConstraintSet TwoComponentConstraints() {
  auto constraints = ParseConstraintSet(
      *MedicalSchema(), "ETH[Asian] in [2,5]\nPRV[AB] in [1,3]\n");
  DIVA_CHECK(constraints.ok());
  return std::move(constraints).value();
}

std::vector<std::string> FieldNames(const Response& response) {
  std::vector<std::string> names;
  for (const auto& [name, value] : response.fields) names.push_back(name);
  return names;
}

TEST(ServeServerTest, UpdateAppliesDeltaChainsIncrementallyAndVerifies) {
  // Two conflict-graph components, so the first update's run captures a
  // pipeline snapshot the second can chain from.
  Server server(MedicalRelation(), TwoComponentConstraints(), TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Publish a pre-update snapshot; it must stay verifiable afterwards.
  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "2";
  auto published = client->Call(anonymize);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  ASSERT_TRUE(published->ok) << published->ToStatus().ToString();

  // First update: no reuse chain exists yet, so it runs cold, swaps the
  // base, and establishes the chain.
  Request update;
  update.verb = "update";
  update.params["k"] = "2";
  update.body = "- 3\n+ Male,Caucasian,46,MB,Winnipeg,Migraine\n";
  auto first = client->Call(update);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok) << first->ToStatus().ToString();
  EXPECT_EQ(first->Field("audited", "0"), "1");
  EXPECT_EQ(first->Field("rows_deleted", ""), "1");
  EXPECT_EQ(first->Field("rows_inserted", ""), "1");
  EXPECT_EQ(first->Field("incremental", ""), "0");
  EXPECT_EQ(first->Field("rows", ""), "10");
  EXPECT_EQ(first->Field("snapshot", ""), "2");

  // Second update: chains off the first one's snapshot.
  Request second_update;
  second_update.verb = "update";
  second_update.params["k"] = "2";
  second_update.body = "# drop the first row\n- 0\n";
  auto second = client->Call(second_update);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(second->ok) << second->ToStatus().ToString();
  EXPECT_EQ(second->Field("audited", "0"), "1");
  EXPECT_EQ(second->Field("incremental", ""), "1");
  EXPECT_EQ(second->Field("rows", ""), "9");

  // Anonymize now runs against the updated (9-row) base.
  auto refreshed = client->Call(anonymize);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ASSERT_TRUE(refreshed->ok) << refreshed->ToStatus().ToString();
  EXPECT_EQ(refreshed->Field("rows", ""), "9");

  // Every published snapshot verifies against the base it was actually
  // produced from — including the pre-update one — and still fetches.
  for (const char* id : {"1", "2", "3", "4"}) {
    Request verify;
    verify.verb = "verify";
    verify.params["snapshot"] = id;
    auto verdict = client->Call(verify);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    ASSERT_TRUE(verdict->ok) << verdict->ToStatus().ToString();
    EXPECT_EQ(verdict->Field("verdict", ""), "pass") << "snapshot " << id;

    Request fetch;
    fetch.verb = "fetch";
    fetch.params["snapshot"] = id;
    auto fetched = client->Call(fetch);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    ASSERT_TRUE(fetched->ok) << fetched->ToStatus().ToString();
    EXPECT_EQ(fetched->Field("audited", ""), "1") << "snapshot " << id;
    const std::string rows = fetched->Field("rows", "");
    ASSERT_FALSE(rows.empty());
    // Header line plus one line per row.
    EXPECT_EQ(std::count(fetched->body.begin(), fetched->body.end(), '\n'),
              std::stol(rows) + 1)
        << "snapshot " << id;
  }

  Request stats;
  stats.verb = "stats";
  auto report = client->Call(stats);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->Field("updates", ""), "2");
  EXPECT_EQ(report->Field("snapshots_published", ""), "4");

  server.Stop();
  EXPECT_EQ(server.inflight(), 0u);
  ServerStats final_stats = server.stats();
  EXPECT_EQ(final_stats.requests + final_stats.protocol_errors,
            final_stats.responses + final_stats.response_failures);
}

TEST(ServeServerTest, WorkVerbsRejectBadParamsWithTheSameCode) {
  Server server(MedicalRelation(), TwoComponentConstraints(), TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // l = -1 would wrap to SIZE_MAX and t = nan would switch t-closeness
  // off; both are parameter errors, like the rest.
  const std::pair<const char*, const char*> kBadParams[] = {
      {"k", "0"},    {"l", "x"},     {"l", "-1"},  {"t", "nan"},
      {"t", "-0.5"}, {"t", "1.5"},   {"baseline", "foo"}};
  for (const auto& [name, value] : kBadParams) {
    SCOPED_TRACE(std::string(name) + "=" + value);
    Request anonymize;
    anonymize.verb = "anonymize";
    anonymize.params[name] = value;
    Request update;
    update.verb = "update";
    update.params[name] = value;
    update.body = "- 0\n";
    auto anonymized = client->Call(anonymize);
    auto updated = client->Call(update);
    ASSERT_TRUE(anonymized.ok()) << anonymized.status().ToString();
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_FALSE(anonymized->ok);
    EXPECT_FALSE(updated->ok);
    EXPECT_EQ(anonymized->code, StatusCode::kInvalidArgument);
    EXPECT_EQ(updated->code, anonymized->code);
  }

  server.Stop();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.updates, 0u);
  EXPECT_EQ(stats.snapshots_published, 0u);
}

TEST(ServeServerTest, UpdateCountsARepeatedDeleteOnce) {
  Server server(MedicalRelation(), TwoComponentConstraints(), TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Request update;
  update.verb = "update";
  update.params["k"] = "2";
  update.body = "- 3\n- 3\n";
  auto applied = client->Call(update);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_TRUE(applied->ok) << applied->ToStatus().ToString();
  EXPECT_EQ(applied->Field("rows_deleted", ""), "1");
  EXPECT_EQ(applied->Field("rows_inserted", ""), "0");
  EXPECT_EQ(applied->Field("rows", ""), "9");

  // A row id past RowId's range must not wrap onto a real row (2^32 + 1
  // would delete row 1).
  update.body = "- 4294967297\n";
  auto wrapped = client->Call(update);
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  EXPECT_FALSE(wrapped->ok);
  EXPECT_EQ(wrapped->code, StatusCode::kInvalidArgument);

  server.Stop();
  EXPECT_EQ(server.stats().updates, 1u);
}

TEST(ServeServerTest, WorkVerbResponseFieldNamesArePinned) {
  Server server(MedicalRelation(), TwoComponentConstraints(), TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "2";
  auto anonymized = client->Call(anonymize);
  ASSERT_TRUE(anonymized.ok()) << anonymized.status().ToString();
  ASSERT_TRUE(anonymized->ok) << anonymized->ToStatus().ToString();
  EXPECT_EQ(FieldNames(*anonymized),
            (std::vector<std::string>{
                "audited", "baseline_degraded", "deadline_exceeded",
                "degraded", "integrate_skipped", "privacy_truncated", "rows",
                "snapshot", "suppressed_cells", "unsatisfied"}));

  Request update;
  update.verb = "update";
  update.params["k"] = "2";
  update.body = "- 1\n";
  // Cold first update, then an incremental one: same field set.
  for (int i = 0; i < 2; ++i) {
    auto updated = client->Call(update);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    ASSERT_TRUE(updated->ok) << updated->ToStatus().ToString();
    EXPECT_EQ(updated->Field("incremental", ""), i == 0 ? "0" : "1");
    EXPECT_EQ(FieldNames(*updated),
              (std::vector<std::string>{
                  "audited", "degraded", "incremental", "rows",
                  "rows_deleted", "rows_inserted", "shards_reused",
                  "snapshot", "suppressed_cells", "unsatisfied"}));
  }
  server.Stop();
}

TEST(ServeServerTest, ShardParamChangesNothing) {
  // `shard` once picked how multi-component runs execute; an old client
  // that still sends it gets the same bytes as one that does not.
  Server server(MedicalRelation(), TwoComponentConstraints(), TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  auto publish_and_fetch = [&](Request request) -> std::string {
    auto published = client->Call(request);
    EXPECT_TRUE(published.ok() && published->ok) << request.verb;
    if (!published.ok() || !published->ok) return "";
    Request fetch;
    fetch.verb = "fetch";
    fetch.params["snapshot"] = published->Field("snapshot", "");
    auto fetched = client->Call(fetch);
    EXPECT_TRUE(fetched.ok() && fetched->ok);
    return fetched.ok() ? fetched->body : "";
  };

  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "2";
  const std::string plain = publish_and_fetch(anonymize);
  anonymize.params["shard"] = "0";
  EXPECT_EQ(publish_and_fetch(anonymize), plain);

  Request update;
  update.verb = "update";
  update.params["k"] = "2";
  update.params["shard"] = "0";
  update.body = "- 2\n";
  EXPECT_FALSE(publish_and_fetch(update).empty());
  server.Stop();
}

// Anonymizes the served base at k = 10 with `baseline` and returns the
// published snapshot's CSV ("" after a reported failure).
std::string AnonymizeAndFetch(Client* client, const std::string& baseline) {
  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "10";
  anonymize.params["baseline"] = baseline;
  auto published = client->Call(anonymize);
  if (!published.ok() || !published->ok) {
    ADD_FAILURE() << "anonymize failed";
    return "";
  }
  Request fetch;
  fetch.verb = "fetch";
  fetch.params["snapshot"] = published->Field("snapshot", "");
  auto fetched = client->Call(fetch);
  if (!fetched.ok() || !fetched->ok) {
    ADD_FAILURE() << "fetch failed";
    return "";
  }
  return fetched->body;
}

TEST(ServeServerTest, UpdateRejectsBadDeltasWithoutTouchingServedState) {
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Request empty;
  empty.verb = "update";
  auto no_body = client->Call(empty);
  ASSERT_TRUE(no_body.ok()) << no_body.status().ToString();
  EXPECT_FALSE(no_body->ok);
  EXPECT_EQ(no_body->code, StatusCode::kInvalidArgument);

  Request malformed;
  malformed.verb = "update";
  malformed.body = "- banana\n";
  auto rejected = client->Call(malformed);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(rejected->code, StatusCode::kInvalidArgument);

  Request out_of_range;
  out_of_range.verb = "update";
  out_of_range.body = "- 100000\n";
  auto refused = client->Call(out_of_range);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_FALSE(refused->ok);

  // Nothing was published and the base still serves at full size.
  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "2";
  auto result = client->Call(anonymize);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->ok) << result->ToStatus().ToString();
  EXPECT_EQ(result->Field("rows", ""), "10");
  EXPECT_EQ(result->Field("snapshot", ""), "1");

  server.Stop();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.updates, 0u);
  EXPECT_EQ(stats.requests + stats.protocol_errors,
            stats.responses + stats.response_failures);

  // A delta whose first inserted row is well formed but carries unseen
  // QI values and whose second row is short is refused, and leaves no
  // value behind: on a base where one more dictionary value moves OKA's
  // and Mondrian's output, the next anonymize publishes the same bytes.
  ProfileOptions profile_options;
  profile_options.num_rows = 3000;
  profile_options.seed = 7;
  auto popsyn = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(popsyn.ok()) << popsyn.status().ToString();
  ConstraintGenOptions gen;
  gen.count = DefaultConstraintCount(DatasetProfile::kPopSyn);
  gen.min_support = 8;
  auto popsyn_constraints = GenerateConstraints(*popsyn, gen);
  ASSERT_TRUE(popsyn_constraints.ok())
      << popsyn_constraints.status().ToString();
  // Each baseline's delta carries its own unseen GEN/ETH/AGE/PRV/CTY
  // values (a value already interned would not show the defect).
  const std::pair<std::string, std::string> deltas[] = {
      {"oka", "+ ID_0,GEN_x1,ETH_x1,123,PRV_x1,CTY_x1,DIAG_v0\n+ short,row\n"},
      {"mondrian",
       "+ ID_0,GEN_x2,ETH_x2,124,PRV_x2,CTY_x2,DIAG_v0\n+ short,row\n"},
  };
  Server popsyn_server(std::move(popsyn).value(),
                       std::move(popsyn_constraints).value(), TestOptions());
  ASSERT_TRUE(popsyn_server.Start().ok());
  auto popsyn_client = Client::Connect("127.0.0.1", popsyn_server.port());
  ASSERT_TRUE(popsyn_client.ok());
  for (const auto& [baseline, body] : deltas) {
    SCOPED_TRACE(baseline);
    const std::string before = AnonymizeAndFetch(&*popsyn_client, baseline);
    ASSERT_FALSE(before.empty());
    Request unseen_then_short;
    unseen_then_short.verb = "update";
    unseen_then_short.body = body;
    auto refused_update = popsyn_client->Call(unseen_then_short);
    ASSERT_TRUE(refused_update.ok()) << refused_update.status().ToString();
    EXPECT_FALSE(refused_update->ok);
    EXPECT_TRUE(AnonymizeAndFetch(&*popsyn_client, baseline) == before)
        << "the refused update changed the next anonymize's bytes";
  }
  popsyn_server.Stop();
  EXPECT_EQ(popsyn_server.stats().updates, 0u);
}

TEST(ServeServerTest, ZeroDeadlineOnIdleServerIsAuditedAndDegraded) {
  // The deadline edge case of the serving contract: deadline_ms=0 is
  // admitted (nothing is ahead of it), the pipeline degrades through the
  // anytime path, and the response is still audited before it leaves.
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "2";
  anonymize.params["deadline_ms"] = "0";
  auto response = client->Call(anonymize);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok) << response->ToStatus().ToString();
  EXPECT_EQ(response->Field("audited", "0"), "1");
  EXPECT_EQ(response->Field("degraded", "0"), "1");
  EXPECT_EQ(response->Field("deadline_exceeded", "0"), "1");

  // The published snapshot records the degradation and the audit.
  auto snapshot = server.snapshots().Find(1);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->audited);
  EXPECT_TRUE(snapshot->degraded);

  server.Stop();
  EXPECT_EQ(server.inflight(), 0u);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.requests + stats.protocol_errors,
            stats.responses + stats.response_failures);
}

TEST(ServeServerTest, WatchdogTripsWedgedRequestIntoAuditedDegradation) {
  // A request with no deadline gets the wedge timeout as its token's
  // deadline. At -1 ms the token is born expired: the run degrades
  // through the anytime pipeline and still answers audited, every time.
  diva::testing::FuzzWorkload workload = diva::testing::MakeWorkload(11);
  ServerOptions options = TestOptions();
  options.wedge_timeout_ms = -1.0;
  Server server(workload.relation, workload.constraints, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "2";
  auto response = client->Call(anonymize);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok) << response->ToStatus().ToString();
  EXPECT_EQ(response->Field("audited", "0"), "1");
  EXPECT_EQ(response->Field("degraded", "0"), "1");
  server.Stop();

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(server.inflight(), 0u);
  EXPECT_EQ(stats.requests + stats.protocol_errors,
            stats.responses + stats.response_failures);
}

TEST(ServeServerTest, RunInFlightPastTheDrainGraceIsCancelledThroughStop) {
  // A Pop-Syn base whose uncancelled anonymize run takes far longer than
  // the 20 ms drain grace: Stop trips the server's stop token, which
  // every request token descends from, and the run answers audited and
  // degraded instead of holding the drain up.
  ProfileOptions profile_options;
  profile_options.num_rows = 20000;
  auto relation = GenerateProfile(DatasetProfile::kPopSyn, profile_options);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  auto constraints = DefaultConstraints(DatasetProfile::kPopSyn, *relation);
  ASSERT_TRUE(constraints.ok()) << constraints.status().ToString();
  ServerOptions options = TestOptions();
  options.drain_grace_ms = 20.0;
  Server server(std::move(relation).value(), std::move(constraints).value(),
                options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "10";
  Result<Response> response = Status::Internal("no response yet");
  TaskGroup caller(1);
  uint64_t ticket =
      caller.Submit([&]() { response = client->Call(anonymize); });
  Mutex nap_mutex;
  CondVar nap_cv;
  while (server.inflight() == 0) {
    MutexLock lock(nap_mutex);
    nap_cv.WaitFor(lock, 0.001);
  }
  server.Stop();
  caller.Wait(ticket);

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok) << response->ToStatus().ToString();
  EXPECT_EQ(response->Field("audited", "0"), "1");
  EXPECT_EQ(response->Field("degraded", "0"), "1");
  EXPECT_EQ(server.inflight(), 0u);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.requests + stats.protocol_errors,
            stats.responses + stats.response_failures);
}

TEST(ServeServerTest, DrainRefusesNewWorkAndStopIsIdempotent) {
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                TestOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  server.RequestDrain();
  EXPECT_TRUE(server.draining());
  Request anonymize;
  anonymize.verb = "anonymize";
  anonymize.params["k"] = "2";
  auto response = client->Call(anonymize);
  // Refused by admission (kUnavailable) or the connection was retired —
  // either way the drain never produced unanonymized output.
  if (response.ok() && !response->ok) {
    EXPECT_EQ(response->code, StatusCode::kUnavailable);
  } else if (!response.ok()) {
    EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  }
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_EQ(server.inflight(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace diva
