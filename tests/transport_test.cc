// net::Transport seam tests: lockstep parity with the historical pump,
// exchange deadlines, fault-plan determinism, ledger bookkeeping, and the
// Target / probe_with_retry wiring on top.
#include <gtest/gtest.h>

#include <optional>

#include "core/client.h"
#include "core/probes.h"
#include "net/transport.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"

namespace h2r {
namespace {

using core::ClientConnection;
using server::Http2Server;
using server::Site;

Http2Server make_server() {
  return Http2Server(server::h2o_profile(), Site::standard_testbed_site());
}

TEST(LockstepTransport, MatchesTheHistoricalPump) {
  // Hand-rolled reference pump (the pre-seam core::run_exchange loop).
  Http2Server s1 = make_server();
  ClientConnection c1;
  const auto sid1 = c1.send_request("/small");
  int hand_rounds = 0;
  for (int i = 0; i < 4096; ++i) {
    const Bytes c2s = c1.take_output();
    if (!c2s.empty()) s1.receive(c2s);
    const Bytes s2c = s1.take_output();
    if (!s2c.empty()) c1.receive(s2c);
    if (c2s.empty() && s2c.empty()) break;
    ++hand_rounds;
  }

  Http2Server s2 = make_server();
  ClientConnection c2;
  const auto sid2 = c2.send_request("/small");
  net::LockstepTransport transport;
  const auto result = transport.run(c2, s2);

  EXPECT_EQ(result.outcome, net::ExchangeOutcome::kQuiescent);
  EXPECT_EQ(result.rounds, hand_rounds);
  EXPECT_EQ(c1.data_received(sid1), c2.data_received(sid2));
  EXPECT_EQ(c1.events().size(), c2.events().size());
  EXPECT_GT(result.bytes_s2c, result.bytes_c2s);  // response dwarfs request
}

TEST(LockstepTransport, RoundCapIsADeadline) {
  auto server = make_server();
  ClientConnection client;
  client.send_request("/large/0");
  net::ExchangeLedger ledger;
  net::LockstepTransport transport(nullptr, &ledger);
  const auto result = transport.run(client, server, {.max_rounds = 1});
  EXPECT_EQ(result.outcome, net::ExchangeOutcome::kRoundCap);
  EXPECT_TRUE(result.deadline_hit());
  EXPECT_EQ(ledger.deadline_hits, 1u);
  EXPECT_TRUE(ledger.attempt_deadline);
}

TEST(LockstepTransport, ByteCapIsADeadline) {
  auto server = make_server();
  ClientConnection client;
  client.send_request("/large/0");  // 512 KiB response
  net::LockstepTransport transport;
  const auto result = transport.run(client, server, {.max_bytes = 1024});
  EXPECT_EQ(result.outcome, net::ExchangeOutcome::kByteCap);
  EXPECT_TRUE(result.deadline_hit());
}

TEST(FaultPlan, GenerateIsAPureFunctionOfSeed) {
  for (std::uint64_t seed : {1ull, 7ull, 0xDEADull, 0xFFFF'FFFF'FFFFull}) {
    const auto a = net::FaultPlan::generate(seed, 0.5);
    const auto b = net::FaultPlan::generate(seed, 0.5);
    EXPECT_EQ(a, b) << seed;
    EXPECT_EQ(a.describe(), b.describe());
  }
  // Different seeds land different schedules (for these seeds, verified).
  EXPECT_NE(net::FaultPlan::generate(1, 1.0), net::FaultPlan::generate(2, 1.0));
}

TEST(FaultPlan, ProbabilityZeroMeansCleanPlans) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto plan = net::FaultPlan::generate(seed, 0.0);
    EXPECT_EQ(plan.kind, net::FaultKind::kNone) << seed;
    EXPECT_GE(plan.max_chunk, 1u);  // segmentation is always on
  }
}

TEST(FaultPlan, ProbabilityOneMeansAlwaysFaulted) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    EXPECT_NE(net::FaultPlan::generate(seed, 1.0).kind, net::FaultKind::kNone)
        << seed;
  }
}

TEST(FaultProbability, FloorsAndClamps) {
  EXPECT_DOUBLE_EQ(net::fault_probability(0.0, 0.2), 0.2);
  EXPECT_DOUBLE_EQ(net::fault_probability(0.01, 0.2), 0.45);
  EXPECT_DOUBLE_EQ(net::fault_probability(1.0, 0.2), 0.95);  // clamped
  EXPECT_DOUBLE_EQ(net::fault_probability(0.0, 0.0), 0.0);
}

TEST(Target, LeasedTransportIsLockstepWithoutFaults) {
  const core::Target target = core::Target::testbed(server::h2o_profile());
  EXPECT_EQ(target.lease_endpoints().transport().name(), "lockstep");
}

/// The fault plan of the next connection's transport against @p target,
/// or nullopt when that transport is not a FaultyTransport.
std::optional<net::FaultPlan> next_plan(const core::Target& target) {
  const core::EndpointLease lease = target.lease_endpoints();
  const auto* faulty =
      dynamic_cast<const net::FaultyTransport*>(&lease.transport());
  if (faulty == nullptr) return std::nullopt;
  return faulty->plan();
}

TEST(Target, LeasedTransportsDerivePerConnectionPlans) {
  core::Target target = core::Target::testbed(server::h2o_profile());
  target.faults.enabled = true;
  target.faults.seed = 42;
  target.faults.probability = 1.0;
  const auto first = next_plan(target);
  const auto second = next_plan(target);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // The connection ordinal advances the stream.
  EXPECT_NE(*first, *second);

  // A fresh target with the same config replays the same plan sequence.
  core::Target replay = core::Target::testbed(server::h2o_profile());
  replay.faults = target.faults;
  const auto replayed = next_plan(replay);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(*first, *replayed);
}

TEST(ProbeWithRetry, RetriesFaultedAttemptsAndBooksBackoff) {
  core::Target target = core::Target::testbed(server::h2o_profile());
  net::ExchangeLedger ledger;
  target.ledger = &ledger;
  core::RetryPolicy policy;
  policy.max_attempts = 3;

  int calls = 0;
  const int result = core::probe_with_retry(target, policy, [&] {
    ++calls;
    if (calls < 3) ledger.attempt_truncated = true;  // simulated fault
    return calls;
  });
  EXPECT_EQ(result, 3);  // the final attempt's value is returned
  EXPECT_EQ(ledger.retries, 2u);
  EXPECT_DOUBLE_EQ(ledger.backoff_ms, 50.0 + 100.0);
  // The failed attempts' flags were dropped: only the clean final attempt
  // settles into the per-site classification.
  EXPECT_FALSE(ledger.final_truncated);
}

TEST(ProbeWithRetry, ExhaustedAttemptsSettleTheFault) {
  core::Target target = core::Target::testbed(server::h2o_profile());
  net::ExchangeLedger ledger;
  target.ledger = &ledger;
  core::RetryPolicy policy;
  policy.max_attempts = 2;
  int calls = 0;
  (void)core::probe_with_retry(target, policy, [&] {
    ++calls;
    ledger.attempt_truncated = true;  // every attempt faults
    return calls;
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(ledger.retries, 1u);
  EXPECT_TRUE(ledger.final_truncated);
}

TEST(ProbeWithRetry, NoLedgerCollapsesToOneCall) {
  const core::Target target = core::Target::testbed(server::h2o_profile());
  int calls = 0;
  (void)core::probe_with_retry(target, {}, [&] { return ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ClientTerminal, ParseErrorSurfacesOffsetAndFrameType) {
  ClientConnection client;
  (void)client.take_output();
  // A well-formed preamble frame first, so the offending frame does not
  // start the stream: 8-octet PING (type 0x6), then a SETTINGS frame whose
  // 5-octet length violates the multiple-of-6 rule (RFC 7540 §6.5).
  const Bytes ping = {0, 0, 8, 0x6, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
  const Bytes bad_settings = {0, 0, 5, 0x4, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9};
  client.receive(ping);
  EXPECT_EQ(client.terminal().state, core::ClientTerminal::kQuiescent);
  client.receive(bad_settings);
  const auto& t = client.terminal();
  EXPECT_EQ(t.state, core::ClientTerminal::kProtocolError);
  EXPECT_FALSE(t.status.ok());
  EXPECT_EQ(t.byte_offset, ping.size());  // the offending frame's start
  EXPECT_TRUE(t.frame_type_known);
  EXPECT_EQ(t.frame_type, 0x4);  // SETTINGS
  EXPECT_FALSE(client.alive());
}

TEST(ClientTerminal, TransportCloseIsATransportError) {
  ClientConnection client;
  (void)client.take_output();
  const Bytes ping = {0, 0, 8, 0x6, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
  client.receive(ping);
  client.on_transport_close(UnavailableError("transport truncated"));
  EXPECT_EQ(client.terminal().state, core::ClientTerminal::kTransportError);
  EXPECT_EQ(client.terminal().byte_offset, ping.size());
  EXPECT_FALSE(client.alive());
}

TEST(ClientTerminal, ProtocolCauseOutranksTransportDeath) {
  ClientConnection client;
  (void)client.take_output();
  const Bytes bad_settings = {0, 0, 5, 0x4, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9};
  client.receive(bad_settings);
  // A truncation notification after the parse error must not relabel it.
  client.on_transport_close(UnavailableError("transport truncated"));
  EXPECT_EQ(client.terminal().state, core::ClientTerminal::kProtocolError);
}

}  // namespace
}  // namespace h2r
