// Chaos suite for the serving subsystem: every serve.* fault-injection
// site is swept with an always-on fault while a storm of clients hammers
// the server, and after each storm the crash-tolerance invariants must
// hold no matter where the fault landed:
//
//   1. no crash (the process is still here to assert anything),
//   2. no leaked work: inflight() == 0 after Stop,
//   3. full accounting: requests + protocol_errors ==
//      responses + response_failures — every parsed frame ended in a
//      terminal response or a counted write failure,
//   4. nothing unaudited ever became fetchable: every published snapshot
//      has audited == true.
//
// Plus the two scenario tests the tentpole promises: overload at 4x the
// admission capacity, and a SIGTERM-style drain mid-storm.

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/status.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tests/test_util.h"

namespace diva {
namespace serve {
namespace {

using diva::testing::MedicalConstraints;
using diva::testing::MedicalRelation;
using diva::testing::MedicalSchema;

/// The serve-domain fault-injection sites this suite owns (the generic
/// sweep in fault_injection_test.cc skips the serve.* prefix and defers
/// to this file). Kept in sync with common/failpoint.cc by
/// SweepCoversEveryServeSite below.
const char* const kServeSites[] = {
    "serve.accept",       "serve.admission", "serve.enqueue",
    "serve.execute",      "serve.frame.read", "serve.publish",
    "serve.request.parse", "serve.respond",
};

ServerOptions ChaosOptions() {
  ServerOptions options;
  options.port = 0;
  options.sessions = 2;
  options.queue_capacity = 4;
  options.drain_grace_ms = 3000.0;
  return options;
}

/// Fires `clients` workers, each sending `requests` anonymize calls (a
/// third with aggressive deadlines) and tolerating every outcome:
/// responses, error responses, shed-by-close, refused connects. Chaos
/// clients never retry — the invariants under test are the server's.
void Storm(const std::string& host, int port, size_t clients,
           size_t requests) {
  TaskGroup workers(clients);
  std::vector<uint64_t> tickets;
  for (size_t w = 0; w < clients; ++w) {
    tickets.push_back(workers.Submit([&, w]() {
      for (size_t r = 0; r < requests; ++r) {
        auto client = Client::Connect(host, port);
        if (!client.ok()) continue;  // refused mid-drain: acceptable
        Request request;
        request.verb = "anonymize";
        request.params["k"] = "2";
        request.params["seed"] = std::to_string(w * 31 + r);
        if (r % 3 == 0) request.params["deadline_ms"] = "40";
        (void)client->Call(request);
      }
    }));
  }
  for (uint64_t ticket : tickets) workers.Wait(ticket);
}

/// The four invariants every chaos scenario must leave behind.
void ExpectInvariants(Server* server, const std::string& context) {
  server->Stop();
  EXPECT_EQ(server->inflight(), 0u) << context << ": leaked in-flight work";
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.requests + stats.protocol_errors,
            stats.responses + stats.response_failures)
      << context << ": requests=" << stats.requests
      << " protocol_errors=" << stats.protocol_errors
      << " responses=" << stats.responses
      << " response_failures=" << stats.response_failures;
  const SnapshotStore& store = server->snapshots();
  for (uint64_t id = 1; id <= store.latest_id(); ++id) {
    auto snapshot = store.Find(id);
    if (snapshot != nullptr) {
      EXPECT_TRUE(snapshot->audited)
          << context << ": snapshot " << id << " published unaudited";
    }
  }
}

TEST(ServeChaosTest, SweepCoversEveryServeSite) {
  // Two-way drift check over the serve.* domain: every site this suite
  // sweeps is compiled in, and every compiled-in serve.* site is swept.
  std::vector<std::string> known = failpoint::KnownFailpoints();
  for (const char* site : kServeSites) {
    bool found = false;
    for (const std::string& name : known) found |= (name == site);
    EXPECT_TRUE(found) << "swept site " << site
                       << " is not registered in common/failpoint.cc";
  }
  for (const std::string& name : known) {
    if (name.rfind("serve.", 0) != 0) continue;
    bool swept = false;
    for (const char* site : kServeSites) swept |= (name == site);
    EXPECT_TRUE(swept) << "serve site " << name
                       << " is not swept by serve_chaos_test.cc";
  }
}

TEST(ServeChaosTest, EverySiteFailsWithoutCrashLeakOrUnauditedOutput) {
  for (const char* site : kServeSites) {
    SCOPED_TRACE(site);
    failpoint::Reset();
    failpoint::Arm(site, StatusCode::kIoError);

    Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                  ChaosOptions());
    ASSERT_TRUE(server.Start().ok());
    Storm("127.0.0.1", server.port(), /*clients=*/4, /*requests=*/3);
    failpoint::Reset();  // disarm before drain so Stop can finish cleanly
    ExpectInvariants(&server, site);
  }
}

TEST(ServeChaosTest, IntermittentFaultsHitEveryFewRequests) {
  // hit-limited arming: the fault fires on every 2nd passage, modelling
  // a flaky dependency instead of a dead one. Same invariants.
  for (const char* site : {"serve.frame.read", "serve.respond",
                           "serve.publish"}) {
    SCOPED_TRACE(site);
    failpoint::Reset();
    failpoint::Arm(site, StatusCode::kIoError, /*trigger_hit=*/2);

    Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                  ChaosOptions());
    ASSERT_TRUE(server.Start().ok());
    Storm("127.0.0.1", server.port(), /*clients=*/3, /*requests=*/4);
    failpoint::Reset();
    ExpectInvariants(&server, site);
  }
}

TEST(ServeChaosTest, OverloadAtFourTimesCapacitySheds) {
  ServerOptions options = ChaosOptions();
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                options);
  ASSERT_TRUE(server.Start().ok());

  // 4x the admission capacity (sessions + queue), tight deadlines: the
  // server must shed rather than wedge, and everything it does answer
  // stays audited.
  const size_t capacity = options.sessions + options.queue_capacity;
  Storm("127.0.0.1", server.port(), /*clients=*/4 * capacity,
        /*requests=*/3);

  ServerStats mid_stats = server.stats();
  ExpectInvariants(&server, "overload");
  // With 24 concurrent clients against 2 sessions and a queue of 4,
  // admission control (or the acceptor's overflow close) must have
  // turned load away somewhere.
  EXPECT_GT(mid_stats.shed + mid_stats.connection_overflow, 0u)
      << "4x overload was absorbed without shedding anything";
}

// The signal-path drain: the handler does exactly what a SIGTERM handler
// may do — one async-signal-safe RequestDrain on the live server.
Server* g_drain_target = nullptr;
void HandleChaosSigterm(int) {
  if (g_drain_target != nullptr) g_drain_target->RequestDrain();
}

TEST(ServeChaosTest, SigtermMidStormDrainsCleanly) {
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                ChaosOptions());
  ASSERT_TRUE(server.Start().ok());
  g_drain_target = &server;
  auto* previous = std::signal(SIGTERM, HandleChaosSigterm);

  // Kick off a storm, then deliver SIGTERM from under it.
  TaskGroup storm(1);
  uint64_t ticket = storm.Submit([&]() {
    Storm("127.0.0.1", server.port(), /*clients=*/6, /*requests=*/4);
  });
  (void)std::raise(SIGTERM);
  EXPECT_TRUE(server.draining()) << "RequestDrain from the handler lost";
  storm.Wait(ticket);

  std::signal(SIGTERM, previous);
  g_drain_target = nullptr;
  ExpectInvariants(&server, "sigterm drain");

  // Post-drain, a fresh request must be refused, not served.
  auto client = Client::Connect("127.0.0.1", server.port());
  if (client.ok()) {
    Request request;
    request.verb = "anonymize";
    request.params["k"] = "2";
    auto response = client->Call(request);
    if (response.ok()) {
      EXPECT_FALSE(response->ok);
    }
  }
}

TEST(ServeChaosTest, DrainWhileFaultsFireStillAccountsForEverything) {
  // Drain and fault injection at the same time: the two recovery paths
  // must compose, not corrupt the books.
  failpoint::Reset();
  failpoint::Arm("serve.respond", StatusCode::kIoError, /*trigger_hit=*/3);
  Server server(MedicalRelation(), MedicalConstraints(*MedicalSchema()),
                ChaosOptions());
  ASSERT_TRUE(server.Start().ok());

  TaskGroup storm(1);
  uint64_t ticket = storm.Submit([&]() {
    Storm("127.0.0.1", server.port(), /*clients=*/4, /*requests=*/4);
  });
  server.RequestDrain();
  storm.Wait(ticket);
  failpoint::Reset();
  ExpectInvariants(&server, "drain + faults");
}

}  // namespace
}  // namespace serve
}  // namespace diva
