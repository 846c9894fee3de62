// FaultyTransport behaviour tests: the adversarial delivery schedules the
// chaos scan runs under. The heart is the truncation sweep — cutting the
// server->client stream at *every* octet offset of a real exchange, which
// lands mid-frame-header, mid-payload, and mid-HPACK-block — asserting the
// client always classifies and nothing ever hangs.
#include <gtest/gtest.h>

#include <optional>

#include "core/client.h"
#include "core/probes.h"
#include "net/transport.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace h2r {
namespace {

using core::ClientConnection;
using core::ClientTerminal;
using server::Http2Server;
using server::Site;

Http2Server make_server() {
  return Http2Server(server::h2o_profile(), Site::standard_testbed_site());
}

/// One GET /small exchange over @p transport; returns the result.
net::ExchangeResult run_get(net::Transport& transport, ClientConnection& client,
                            Http2Server& server, const char* path = "/small") {
  client.send_request(path);
  return transport.run(client, server, {.max_rounds = 512});
}

/// Total server->client octets of the clean reference exchange.
std::uint64_t clean_s2c_bytes() {
  auto server = make_server();
  ClientConnection client;
  net::LockstepTransport transport;
  return run_get(transport, client, server).bytes_s2c;
}

TEST(FaultyTransport, DribbleDeliveryIsProtocolInvisible) {
  // 1-byte segmentation must yield the same client-visible conversation as
  // the whole-buffer lockstep pump: endpoints reassemble any segmentation.
  auto s1 = make_server();
  ClientConnection c1;
  net::LockstepTransport lockstep;
  const auto sid1 = c1.send_request("/small");
  lockstep.run(c1, s1);

  auto s2 = make_server();
  ClientConnection c2;
  net::FaultyTransport dribble({.seed = 1, .max_chunk = 1});
  const auto sid2 = c2.send_request("/small");
  const auto result = dribble.run(c2, s2, {.max_rounds = 4096});

  EXPECT_EQ(result.outcome, net::ExchangeOutcome::kQuiescent);
  EXPECT_EQ(result.fault, net::FaultKind::kNone);
  EXPECT_EQ(c1.data_received(sid1), c2.data_received(sid2));
  ASSERT_NE(c1.response_headers(sid1), nullptr);
  ASSERT_NE(c2.response_headers(sid2), nullptr);
  EXPECT_EQ(*c1.response_headers(sid1), *c2.response_headers(sid2));
  EXPECT_EQ(c2.terminal().state, ClientTerminal::kQuiescent);
}

TEST(FaultyTransport, TruncationAtEveryOffsetTerminatesAndClassifies) {
  const std::uint64_t total = clean_s2c_bytes();
  ASSERT_GT(total, 100u);

  for (std::uint64_t cut = 0; cut < total; ++cut) {
    auto server = make_server();
    ClientConnection client;
    net::ExchangeLedger ledger;
    net::FaultyTransport transport({.seed = cut,
                                    .max_chunk = 64,
                                    .kind = net::FaultKind::kTruncate,
                                    .dir = trace::Direction::kServerToClient,
                                    .at_byte = cut},
                                   nullptr, &ledger);
    const auto result = run_get(transport, client, server);

    // Bounded: the cut stream quiesces, it never spins to the round cap.
    ASSERT_FALSE(result.deadline_hit()) << "hang at cut=" << cut;
    ASSERT_EQ(result.fault, net::FaultKind::kTruncate) << cut;
    ASSERT_TRUE(transport.fault_fired()) << cut;
    ASSERT_TRUE(ledger.attempt_truncated) << cut;

    // The client knows the transport died under it — unless the delivered
    // prefix happened to already end the conversation some other way.
    const auto& t = client.terminal();
    ASSERT_NE(t.state, ClientTerminal::kQuiescent) << cut;
    if (t.state == ClientTerminal::kTransportError) {
      ASSERT_EQ(t.byte_offset, cut) << cut;
    }
    ASSERT_FALSE(client.alive()) << cut;
  }
}

TEST(FaultyTransport, TruncationOfTheClientStreamStillAnswers) {
  // Cutting client->server after the preface: the server keeps its half of
  // the connection and the exchange still terminates.
  auto server = make_server();
  ClientConnection client;
  net::FaultyTransport transport({.seed = 3,
                                  .max_chunk = 32,
                                  .kind = net::FaultKind::kTruncate,
                                  .dir = trace::Direction::kClientToServer,
                                  .at_byte = 40});
  const auto result = run_get(transport, client, server);
  EXPECT_FALSE(result.deadline_hit());
  EXPECT_TRUE(transport.fault_fired());
}

TEST(FaultyTransport, DisconnectKillsBothDirectionsAtOnce) {
  auto server = make_server();
  ClientConnection client;
  net::ExchangeLedger ledger;
  net::FaultyTransport transport({.seed = 5,
                                  .max_chunk = 16,
                                  .kind = net::FaultKind::kDisconnect,
                                  .dir = trace::Direction::kServerToClient,
                                  .at_byte = 50},
                                 nullptr, &ledger);
  const auto result = run_get(transport, client, server);
  EXPECT_EQ(result.outcome, net::ExchangeOutcome::kDisconnected);
  EXPECT_EQ(result.fault, net::FaultKind::kDisconnect);
  EXPECT_TRUE(ledger.attempt_disconnect);
  EXPECT_EQ(client.terminal().state, ClientTerminal::kTransportError);
  EXPECT_FALSE(client.alive());
  // Further runs on the dead connection are no-ops, not hangs.
  const auto again = transport.run(client, server, {.max_rounds = 4});
  EXPECT_EQ(again.outcome, net::ExchangeOutcome::kDisconnected);
  EXPECT_EQ(again.rounds, 0);
}

TEST(FaultyTransport, StallDelaysDeliveryButCompletes) {
  auto s1 = make_server();
  ClientConnection c1;
  net::LockstepTransport lockstep;
  const auto sid1 = c1.send_request("/small");
  const auto clean = lockstep.run(c1, s1);

  auto s2 = make_server();
  ClientConnection c2;
  net::FaultyTransport stalled({.seed = 8,
                               .max_chunk = 0,
                               .kind = net::FaultKind::kStall,
                               .dir = trace::Direction::kServerToClient,
                               .at_byte = 30,
                               .stall_rounds = 5});
  const auto sid2 = c2.send_request("/small");
  const auto result = stalled.run(c2, s2, {.max_rounds = 4096});

  EXPECT_EQ(result.outcome, net::ExchangeOutcome::kQuiescent);
  EXPECT_GT(result.rounds, clean.rounds);  // the held rounds still tick
  // Stalls delay but lose nothing: the conversation ends identically.
  EXPECT_EQ(c1.data_received(sid1), c2.data_received(sid2));
  EXPECT_EQ(c2.terminal().state, ClientTerminal::kQuiescent);
}

TEST(FaultyTransport, CorruptionSurfacesAsProtocolOrFlowEffect) {
  const std::uint64_t total = clean_s2c_bytes();
  int protocol_errors = 0;
  for (std::uint64_t at = 0; at < total; ++at) {
    auto server = make_server();
    ClientConnection client;
    net::FaultyTransport transport({.seed = at,
                                    .max_chunk = 128,
                                    .kind = net::FaultKind::kCorrupt,
                                    .dir = trace::Direction::kServerToClient,
                                    .at_byte = at,
                                    .xor_mask = 0x80});
    const auto result = run_get(transport, client, server);
    ASSERT_FALSE(result.deadline_hit()) << at;
    ASSERT_TRUE(transport.fault_fired()) << at;
    if (client.terminal().state == ClientTerminal::kProtocolError) {
      ++protocol_errors;
      // The taxonomy pins the offending frame's stream offset.
      ASSERT_LE(client.terminal().byte_offset, total) << at;
    }
  }
  // Flipping a frame-length or type octet reliably breaks framing for a
  // decent share of offsets; all of them must classify, none may hang.
  EXPECT_GT(protocol_errors, 0);
}

TEST(FaultyTransport, SameFaultPlanReplaysTheSameConversation) {
  const auto run_once = [](std::string* jsonl) {
    auto server = make_server();
    trace::RingRecorder recorder;
    core::ClientOptions opts;
    opts.recorder = &recorder;
    ClientConnection client(opts);
    net::FaultyTransport transport(
        net::FaultPlan::generate(0xC0FFEE, 1.0), &recorder);
    auto result = transport.run(client, server, {.max_rounds = 512});
    client.send_request("/small");
    result = transport.run(client, server, {.max_rounds = 512});
    *jsonl = trace::to_jsonl(recorder.decode(), "replay.example");
    return result;
  };
  std::string a, b;
  const auto ra = run_once(&a);
  const auto rb = run_once(&b);
  EXPECT_EQ(ra.outcome, rb.outcome);
  EXPECT_EQ(ra.rounds, rb.rounds);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical annotated JSONL
}

TEST(FaultyTransport, FaultsAreRecordedAsTraceEvents) {
  auto server = make_server();
  trace::RingRecorder recorder;
  core::ClientOptions opts;
  opts.recorder = &recorder;
  ClientConnection client(opts);
  net::FaultyTransport transport({.seed = 2,
                                  .max_chunk = 48,
                                  .kind = net::FaultKind::kTruncate,
                                  .dir = trace::Direction::kServerToClient,
                                  .at_byte = 64},
                                 &recorder);
  client.send_request("/small");
  transport.run(client, server, {.max_rounds = 512});

  std::optional<trace::TraceEvent> fault;
  for (const auto& ev : recorder.decode()) {
    if (ev.kind == trace::EventKind::kFault) fault = ev;
  }
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->dir, trace::Direction::kServerToClient);
  EXPECT_EQ(fault->detail_a, 64u);
  EXPECT_EQ(fault->note, "truncate");
}

TEST(ExchangeDriver, HugeStallParksInsteadOfSpinning) {
  // A stall holding delivery for thousands of rounds must cost the driver a
  // handful of pump() calls, not thousands: pump() reports kParked with the
  // whole dead stretch, unpark() skips it in one step.
  auto s1 = make_server();
  ClientConnection c1;
  net::LockstepTransport lockstep;
  const auto sid1 = c1.send_request("/small");
  lockstep.run(c1, s1);

  auto s2 = make_server();
  ClientConnection c2;
  net::FaultyTransport stalled({.seed = 8,
                                .max_chunk = 0,
                                .kind = net::FaultKind::kStall,
                                .dir = trace::Direction::kServerToClient,
                                .at_byte = 30,
                                .stall_rounds = 2000});
  const auto sid2 = c2.send_request("/small");

  net::EndpointRef<ClientConnection> client_ep(c2);
  net::EndpointRef<Http2Server> server_ep(s2);
  net::ExchangeDriver driver(stalled, client_ep, server_ep,
                             {.max_rounds = 4096});
  int pumps = 0;
  int parked_rounds = 0;
  while (driver.pump() == net::ExchangeDriver::State::kParked) {
    ++pumps;
    ASSERT_LT(pumps, 32) << "driver spun instead of parking the stall";
    EXPECT_GT(driver.park_rounds(), 0);
    parked_rounds += driver.park_rounds();
    driver.unpark();
  }
  ASSERT_EQ(driver.state(), net::ExchangeDriver::State::kDone);

  const auto& result = driver.result();
  EXPECT_EQ(result.outcome, net::ExchangeOutcome::kQuiescent);
  EXPECT_GE(parked_rounds, 2000 - 32);  // the stall was parked, not pumped
  EXPECT_GT(result.rounds, 2000);       // ...but the rounds still elapsed
  // Parking loses nothing: the conversation ends as the clean one did.
  EXPECT_EQ(c1.data_received(sid1), c2.data_received(sid2));
  EXPECT_EQ(c2.terminal().state, ClientTerminal::kQuiescent);
}

TEST(ExchangeDriver, ParksAreBookedOnTheLedger) {
  auto server = make_server();
  ClientConnection client;
  net::ExchangeLedger ledger;
  net::FaultyTransport stalled({.seed = 8,
                                .max_chunk = 0,
                                .kind = net::FaultKind::kStall,
                                .dir = trace::Direction::kServerToClient,
                                .at_byte = 30,
                                .stall_rounds = 64},
                               nullptr, &ledger);
  ledger.begin_attempt();
  client.send_request("/small");
  // run() services parks inline; the ledger must still see them — park
  // accounting is a property of the exchange, not of who resumes it.
  const auto result = stalled.run(client, server, {.max_rounds = 4096});
  ledger.settle_attempt();

  EXPECT_EQ(result.outcome, net::ExchangeOutcome::kQuiescent);
  EXPECT_GT(ledger.parks, 0u);
  EXPECT_GE(ledger.parked_rounds, 64u);
  EXPECT_EQ(ledger.park_durations.count(), ledger.parks);
  EXPECT_EQ(ledger.park_durations.sum(), ledger.parked_rounds);
  EXPECT_EQ(ledger.park_durations.buckets()[0], 0u);  // no zero-length park
}

TEST(ProbeWithRetry, BooksOneBackoffParkPerRetry) {
  // Every connection faulted: attempts fail and are retried, and each
  // retry's backoff lands on the ledger as one park of that many rounds,
  // beside the parks the stalled exchanges book themselves.
  core::Target target = core::Target::testbed(server::h2o_profile());
  target.faults = {.enabled = true, .seed = 3, .probability = 1.0};
  net::ExchangeLedger ledger;
  target.ledger = &ledger;
  core::RetryPolicy policy;
  policy.max_attempts = 3;

  std::uint64_t attempts = 0;
  std::uint64_t exchange_parks = 0;
  std::uint64_t exchange_rounds = 0;
  (void)core::probe_with_retry(target, policy, [&] {
    ++attempts;
    const std::uint64_t parks = ledger.parks;
    const std::uint64_t rounds = ledger.parked_rounds;
    const auto result = core::probe_settings(target);
    exchange_parks += ledger.parks - parks;
    exchange_rounds += ledger.parked_rounds - rounds;
    return result;
  });

  ASSERT_GT(ledger.retries, 0u);
  EXPECT_EQ(attempts, ledger.retries + 1);
  std::uint64_t backoff_rounds = 0;
  double backoff = policy.backoff_base_ms;
  for (std::uint64_t i = 0; i < ledger.retries; ++i) {
    backoff_rounds += static_cast<std::uint64_t>(backoff);
    backoff *= policy.backoff_multiplier;
  }
  EXPECT_EQ(ledger.parks, exchange_parks + ledger.retries);
  EXPECT_EQ(ledger.parked_rounds, exchange_rounds + backoff_rounds);
  EXPECT_EQ(ledger.park_durations.count(), ledger.parks);
  EXPECT_EQ(ledger.park_durations.sum(), ledger.parked_rounds);
}

}  // namespace
}  // namespace h2r
