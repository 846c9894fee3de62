// Leased endpoints are fresh endpoints. Every fresh-connection probe leases
// its client, engine and transport from an EndpointSlot, which rewinds them
// instead of rebuilding them. Each probe here runs twice against every
// testbed profile, with faults off and on and the wiretap recording: once
// on a slot that already served another profile's site over both kinds of
// transport and then lost a connection to a disconnect, once on a slot
// built for the occasion. Results, the client's event log (decoded header
// lists included) and the wiretap records must be identical.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/probes.h"
#include "h2/frame_codec.h"
#include "net/transport.h"
#include "server/profile.h"
#include "trace/recorder.h"
#include "util/rng.h"

namespace h2r::core {
namespace {

using Probe = std::function<std::string(const Target&)>;

std::string opt(const std::optional<std::uint32_t>& v) {
  return v ? std::to_string(*v) : "-";
}

/// The probes that open fresh connections, each rendering its result.
std::vector<std::pair<std::string, Probe>> probes() {
  return {
      {"settings",
       [](const Target& t) {
         const auto r = probe_settings(t);
         std::ostringstream o;
         o << r.headers_received << ' ' << r.settings_entry_count << ' '
           << opt(r.header_table_size) << ' ' << opt(r.max_concurrent_streams)
           << ' ' << opt(r.initial_window_size) << ' '
           << opt(r.max_frame_size) << ' ' << opt(r.max_header_list_size)
           << ' ' << r.preemptive_window_bonus << ' ' << r.server_header;
         return o.str();
       }},
      {"data_frame_control",
       [](const Target& t) {
         const auto r = probe_data_frame_control(t);
         return std::string(to_string(r.outcome)) + ' ' +
                std::to_string(r.first_data_size) + ' ' +
                std::to_string(r.headers_received);
       }},
      {"zero_window",
       [](const Target& t) {
         const auto r = probe_zero_window_headers(t);
         return std::to_string(r.headers_received) +
                std::to_string(r.data_received);
       }},
      {"window_update",
       [](const Target& t) {
         const auto r = probe_window_update_reactions(t);
         return std::string(to_string(r.zero_on_stream)) + ' ' +
                std::string(to_string(r.zero_on_connection)) + ' ' +
                std::string(to_string(r.large_on_stream)) + ' ' +
                std::string(to_string(r.large_on_connection)) + ' ' +
                r.zero_debug_data;
       }},
      {"priority",
       [](const Target& t) {
         const auto r = probe_priority_mechanism(t);
         std::ostringstream o;
         o << r.ran << r.pass_by_last_data << r.pass_by_first_data
           << r.pass_by_both << r.headers_during_zero_window;
         return o.str();
       }},
      {"self_dependency",
       [](const Target& t) {
         return std::string(to_string(probe_self_dependency(t).reaction));
       }},
      {"push",
       [](const Target& t) {
         const auto r = probe_server_push(t);
         std::string out = std::to_string(r.pushed_bytes);
         for (const auto& p : r.pushed_paths) out += ' ' + p;
         return out;
       }},
      {"hpack",
       [](const Target& t) {
         const auto r = probe_hpack_ratio(t);
         std::string out =
             std::to_string(r.ran) + ' ' + std::to_string(r.ratio);
         for (const std::size_t s : r.header_sizes) {
           out += ' ' + std::to_string(s);
         }
         return out;
       }},
      {"multiplexing",
       [](const Target& t) {
         const auto r = probe_multiplexing(t);
         return std::to_string(r.supported) + ' ' +
                std::to_string(r.streams_completed) + ' ' +
                std::to_string(r.interleave_switches);
       }},
      {"concurrency_limit",
       [](const Target& t) {
         const auto r = probe_concurrency_limit(t);
         return std::to_string(r.refused_when_zero) +
                std::to_string(r.refused_second_when_one);
       }},
      {"ping",
       [](const Target& t) {
         Rng rng(7);
         const auto r = probe_ping(t, 3, rng);
         std::string out = std::to_string(r.supported);
         for (const double ms : r.h2_ping_ms) out += ' ' + std::to_string(ms);
         return out;
       }},
  };
}

/// The client's event log, rendered field by field.
std::vector<std::string> event_log(const ClientConnection& client) {
  std::vector<std::string> log;
  for (const ReceivedFrame& ev : client.events()) {
    std::string line = std::to_string(ev.sequence) + ' ' +
                       std::to_string(ev.header_block_size) + ' ' +
                       to_hex(h2::serialize_frame(ev.frame));
    if (ev.headers) {
      for (const auto& f : *ev.headers) {
        line += ' ' + f.name + '=' + f.value + (f.never_indexed ? "!" : "");
      }
    }
    log.push_back(std::move(line));
  }
  return log;
}

/// The wiretap tape, one string per record (notes included).
std::vector<std::string> tape(const trace::RingRecorder& ring) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const trace::WireRecord& r = ring.at(i);
    out.push_back(std::to_string(r.time_bits) + ' ' +
                  std::to_string(r.stream_id) + ' ' +
                  std::to_string(r.wire_length) + ' ' +
                  std::to_string(r.detail_a) + ' ' +
                  std::to_string(r.detail_b) + ' ' + std::to_string(r.dir) +
                  ' ' + std::to_string(r.kind) + ' ' +
                  std::to_string(r.frame_type) + ' ' +
                  std::to_string(r.flags) + ' ' +
                  std::string(ring.note_at(i)));
  }
  return out;
}

struct Observed {
  std::string result;
  std::vector<std::string> events;  ///< the probe's last connection
  std::vector<std::string> records;
};

Target make_target(const server::ServerProfile& profile, bool faults,
                   trace::RingRecorder& ring, EndpointSlot& slot) {
  Target t = Target::testbed(profile);
  t.recorder = &ring;
  t.endpoints = &slot;
  if (faults) {
    t.faults.enabled = true;
    t.faults.seed = 0x5EEDull;
    t.faults.probability = 0.5;
  }
  return t;
}

Observed observe(const server::ServerProfile& profile, bool faults,
                 const Probe& probe, EndpointSlot& slot) {
  trace::RingRecorder ring;
  const Target t = make_target(profile, faults, ring, slot);
  Observed out;
  out.result = probe(t);
  EXPECT_FALSE(slot.leased());
  out.events = event_log(*slot.client());
  out.records = tape(ring);
  return out;
}

/// Leaves @p slot as a scan would after another site, every piece of its
/// reused storage dirty: the whole probe battery against a different
/// profile (fair-share scheduled, so the priority tree's pick scratch is
/// used too) over faulty transports fills the event log, the decoded
/// header lists and payload octets and builds the slot's faulty transport;
/// a clean push and HPACK probe rewinds its lockstep transport; a last
/// connection loses its transport to a disconnect mid-exchange.
void dirty(EndpointSlot& slot, const server::ServerProfile& profile) {
  const std::string other_key = profile.key == "gse" ? "nginx" : "gse";
  server::ServerProfile other_profile = server::profile_by_key(other_key);
  other_profile.scheduler = server::SchedulerKind::kFairShare;
  trace::RingRecorder ring;
  const Target faulted =
      make_target(other_profile, /*faults=*/true, ring, slot);
  for (const auto& [name, probe] : probes()) (void)probe(faulted);
  Target other = make_target(other_profile, /*faults=*/false, ring, slot);
  (void)probe_server_push(other);
  (void)probe_hpack_ratio(other);
  const EndpointLease lease = other.lease_endpoints();
  net::FaultPlan plan;
  plan.kind = net::FaultKind::kDisconnect;
  plan.dir = trace::Direction::kServerToClient;
  plan.at_byte = 60;
  net::FaultyTransport transport(plan, other.recorder);
  lease.client().send_request("/large/0");
  const auto result = transport.run(lease.client(), lease.server());
  ASSERT_EQ(result.outcome, net::ExchangeOutcome::kDisconnected);
  ASSERT_FALSE(lease.client().alive());
}

class EndpointReuse
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(EndpointReuse, RewoundSlotMatchesFreshEndpoints) {
  const auto& [key, faults] = GetParam();
  const server::ServerProfile profile = server::profile_by_key(key);
  for (const auto& [name, probe] : probes()) {
    SCOPED_TRACE(name);
    EndpointSlot warm;
    dirty(warm, profile);
    const Observed reused = observe(profile, faults, probe, warm);
    EndpointSlot fresh;
    const Observed built = observe(profile, faults, probe, fresh);
    EXPECT_EQ(reused.result, built.result);
    EXPECT_EQ(reused.events, built.events);
    EXPECT_EQ(reused.records, built.records);
    EXPECT_FALSE(built.records.empty());
  }
}

std::vector<std::string> profile_keys() {
  std::vector<std::string> keys;
  for (const auto& p : server::testbed_profiles()) keys.push_back(p.key);
  return keys;
}

INSTANTIATE_TEST_SUITE_P(
    Testbed, EndpointReuse,
    ::testing::Combine(::testing::ValuesIn(profile_keys()),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) ? "_faulted" : "_clean");
    });

// A fresh probe on a target without a slot of its own leases from one the
// target owns; it must observe what a caller-provided slot does.
TEST(EndpointReuse, TargetOwnedSlotMatchesProvidedSlot) {
  const server::ServerProfile profile = server::profile_by_key("h2o");
  trace::RingRecorder owned_ring;
  Target owned = Target::testbed(profile);
  owned.recorder = &owned_ring;
  const auto a = probe_window_update_reactions(owned);
  EndpointSlot slot;
  trace::RingRecorder slot_ring;
  const Target provided = make_target(profile, false, slot_ring, slot);
  const auto b = probe_window_update_reactions(provided);
  EXPECT_EQ(a.zero_on_stream, b.zero_on_stream);
  EXPECT_EQ(a.large_on_connection, b.large_on_connection);
  EXPECT_EQ(tape(owned_ring), tape(slot_ring));
}

/// What the next connection against @p t serves: the
/// SETTINGS_MAX_CONCURRENT_STREAMS its engine announces and the DATA
/// octets of /small.
std::pair<std::optional<std::uint32_t>, std::size_t> served(const Target& t) {
  const EndpointLease lease = t.lease_endpoints();
  const std::uint32_t sid = lease.client().send_request("/small");
  lease.transport().run(lease.client(), lease.server(), t.limits);
  return {lease.client().server_settings().raw(
              h2::SettingId::kMaxConcurrentStreams),
          lease.client().data_received(sid)};
}

// Engines borrow the profile and site of the target they are leased for.
// A copy of a target that has already leased, with its profile and one
// resource tweaked (as probe_concurrency_limit tweaks its copies), serves
// its own values, and the original's next lease serves the original's —
// on the target's own slot and on a slot the two share, as in the scan.
TEST(EndpointReuse, CopyOfLeasedTargetServesItsOwnFields) {
  for (const bool shared_slot : {false, true}) {
    SCOPED_TRACE(shared_slot ? "shared slot" : "own slot");
    EndpointSlot slot;
    Target original = Target::testbed(server::profile_by_key("h2o"));
    if (shared_slot) original.endpoints = &slot;
    const auto before = served(original);
    ASSERT_TRUE(before.first.has_value());
    ASSERT_GT(before.second, 0u);

    Target copy = original;
    copy.profile.max_concurrent_streams = *before.first + 7;
    copy.site.add_resource({.path = "/small", .size = before.second + 100});
    EXPECT_EQ(served(copy), std::make_pair(std::optional<std::uint32_t>(
                                               *before.first + 7),
                                           before.second + 100));
    EXPECT_EQ(served(original), before);
  }
}

#ifndef NDEBUG
TEST(EndpointReuseDeathTest, SecondLiveLeaseAsserts) {
  EndpointSlot slot;
  const Target t = Target::testbed(server::profile_by_key("nginx"));
  const EndpointLease first = slot.lease(t);
  EXPECT_DEATH((void)slot.lease(t), "leased twice");
}
#endif

}  // namespace
}  // namespace h2r::core
