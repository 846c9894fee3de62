// Sharded-serving tests: zero-error loopback runs at 2 and 4 shards,
// merged-stats = per-shard sums, GOAWAY on every shard at drain (with an
// untorn merged trace), a fingerprint-identity check that sharding never
// alters wire behaviour, bounded shard tapes that merge exactly like
// unbounded ones, out-of-contract options rejected as InvalidArgument, one
// cache booking per served response, and the shard header-block cache's
// byte-identity guarantees.
//
// Every shard owns an SO_REUSEPORT listener and the kernel picks the shard
// for each connection by hashing its 4-tuple, so no test can steer a
// connection to a shard. Tests that need every shard to see traffic open
// kConnsPerShard (16) connections per shard instead. Taking each landing as
// an independent uniform draw, some shard of N stays idle after 16N
// connections with probability at most N * (1 - 1/N)^(16N): 2 * 2^-32 <
// 5e-10 for 2 shards and 3 * (2/3)^48 < 1.1e-8 for 3, both below 1e-6.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/client.h"
#include "h2/constants.h"
#include "net/transport.h"
#include "netio/load.h"
#include "netio/serve_shard.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"
#include "trace/recorder.h"

namespace h2r {
namespace {

// --------------------------------------------------------------- harness

/// Runs a ShardedServe on a background thread; stop() drains gracefully.
struct ShardedRunner {
  explicit ShardedRunner(const netio::ShardedServeOptions& opts) {
    auto created = netio::ShardedServe::create(opts);
    EXPECT_TRUE(created.ok()) << created.status().message();
    if (!created.ok()) return;
    serve = std::move(created.value());
    thread = std::thread([this] {
      const Status run = serve->run();
      EXPECT_TRUE(run.ok()) << run.message();
    });
  }

  void stop() {
    if (!serve || stopped) return;
    serve->request_shutdown();
    thread.join();
    stopped = true;
  }

  ~ShardedRunner() { stop(); }

  std::unique_ptr<netio::ShardedServe> serve;
  std::thread thread;
  bool stopped = false;
};

/// Everything a client can observe about a conversation, flattened into a
/// comparable string (same shape as netio_test's lockstep-identity helper).
std::string fingerprint(const core::ClientConnection& client) {
  std::string out;
  for (const auto& received : client.events()) {
    out += std::to_string(static_cast<int>(received.frame.type()));
    out += ":" + std::to_string(received.frame.stream_id);
    out += ":" + std::to_string(static_cast<int>(received.frame.flags));
    out += ":" + std::to_string(received.header_block_size);
    if (received.headers.has_value()) {
      for (const auto& header : *received.headers) {
        out += "|" + header.name + "=" + header.value;
      }
    }
    out += "\n";
  }
  return out;
}

/// Pumps one scripted GET (plus any promised pushes) through @p port and
/// returns the client-side fingerprint.
std::string sharded_socket_fingerprint(std::uint16_t port) {
  auto sock = netio::SocketClient::connect("127.0.0.1", port);
  EXPECT_TRUE(sock.ok()) << sock.status().message();
  if (!sock.ok()) return {};
  auto& client = sock.value()->client();
  const std::uint32_t sid = client.send_request("/");
  const Status pumped =
      sock.value()->pump_until([sid](core::ClientConnection& c) {
        if (!c.stream_complete(sid)) return false;
        for (const auto& [pushed_id, headers] : c.pushes()) {
          (void)headers;
          if (!c.stream_complete(pushed_id)) return false;
        }
        return true;
      });
  EXPECT_TRUE(pumped.ok()) << pumped.message();
  EXPECT_TRUE(sock.value()->finish().ok());
  return fingerprint(client);
}

/// Connections per shard that leave some shard idle with probability
/// below 1e-6 (see the file comment).
constexpr int kConnsPerShard = 16;

/// Asserts that every shard of @p serve accepted at least one connection,
/// so a merged figure is never trivially one shard's.
void expect_every_shard_accepted(const netio::ShardedServe& serve) {
  for (std::size_t shard = 0; shard < serve.shard_count(); ++shard) {
    EXPECT_GT(serve.shard_stats(shard).accepted, 0u) << "shard " << shard;
  }
}

// ------------------------------------------------ zero-error sharded runs

void run_sharded_load(unsigned shards) {
  netio::ShardedServeOptions opts;
  opts.base.profile_key = "nginx";
  opts.shards = shards;
  ShardedRunner runner(opts);
  ASSERT_TRUE(runner.serve);

  netio::LoadOptions load;
  load.port = runner.serve->port();
  load.connections = static_cast<int>(shards) * 2;
  load.requests = 400;
  load.streams = 4;
  load.threads = 2;
  const netio::LoadReport report = netio::run_load(load);
  EXPECT_EQ(report.completed, 400u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.total_errors(), 0u);
  EXPECT_EQ(report.clean_closes, static_cast<std::uint64_t>(load.connections));

  runner.stop();
  const netio::ServeStats& stats = runner.serve->stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(load.connections));
  EXPECT_EQ(stats.served_clean, static_cast<std::uint64_t>(load.connections));
  EXPECT_TRUE(stats.errors.empty());
  EXPECT_EQ(stats.trace_drops, 0u);
  // Repeated GETs for the same resources must hit the header-block cache.
  EXPECT_GT(stats.header_cache_hits, 0u);
}

TEST(ShardedServe, TwoShardsServeLoadWithZeroErrors) { run_sharded_load(2); }

TEST(ShardedServe, FourShardsServeLoadWithZeroErrors) { run_sharded_load(4); }

TEST(ShardedServe, EveryResponseBooksOneCacheHitOrMiss) {
  netio::ShardedServeOptions opts;
  opts.base.profile_key = "nginx";
  opts.shards = 2;
  ShardedRunner runner(opts);
  ASSERT_TRUE(runner.serve);

  // A served page and the synthetic 404: both are cacheable responses.
  std::uint64_t completed = 0;
  for (const std::string path : {"/", "/no-such-page"}) {
    netio::LoadOptions load;
    load.port = runner.serve->port();
    load.connections = 4;
    load.requests = 200;
    load.streams = 4;
    load.threads = 2;
    load.path = path;
    const netio::LoadReport report = netio::run_load(load);
    EXPECT_EQ(report.completed, 200u) << path;
    EXPECT_EQ(report.failed, 0u) << path;
    completed += report.completed;
  }

  runner.stop();
  const netio::ServeStats& stats = runner.serve->stats();
  // An nginx encoder never indexes response headers, so it stays pristine
  // and the shard cache answers every repeat; the first encode of each
  // resource on each shard is the only miss.
  EXPECT_EQ(stats.header_cache_hits + stats.header_cache_misses, completed);
  EXPECT_GT(stats.header_cache_hits, 0u);
  EXPECT_LE(stats.header_cache_misses, 2u * opts.shards);
}

// -------------------------------------------------- merged-stats identity

TEST(ShardedServe, MergedStatsEqualPerShardSums) {
  netio::ShardedServeOptions opts;
  opts.base.profile_key = "nginx";
  opts.shards = 2;
  ShardedRunner runner(opts);
  ASSERT_TRUE(runner.serve);

  netio::LoadOptions load;
  load.port = runner.serve->port();
  load.connections = kConnsPerShard * static_cast<int>(opts.shards);
  load.requests = 10 * load.connections;
  load.streams = 2;
  const netio::LoadReport report = netio::run_load(load);
  EXPECT_EQ(report.total_errors(), 0u);

  runner.stop();
  netio::ServeStats summed;
  for (std::size_t shard = 0; shard < runner.serve->shard_count(); ++shard) {
    summed.merge(runner.serve->shard_stats(shard));
  }
  const netio::ServeStats& merged = runner.serve->stats();
  EXPECT_EQ(merged.accepted, summed.accepted);
  EXPECT_EQ(merged.served_clean, summed.served_clean);
  EXPECT_EQ(merged.disconnected, summed.disconnected);
  EXPECT_EQ(merged.declined_h1, summed.declined_h1);
  EXPECT_EQ(merged.accept_refused, summed.accept_refused);
  EXPECT_EQ(merged.drain_expired, summed.drain_expired);
  EXPECT_EQ(merged.rounds, summed.rounds);
  EXPECT_EQ(merged.bytes_in, summed.bytes_in);
  EXPECT_EQ(merged.bytes_out, summed.bytes_out);
  EXPECT_EQ(merged.trace_drops, summed.trace_drops);
  EXPECT_EQ(merged.header_cache_hits, summed.header_cache_hits);
  EXPECT_EQ(merged.header_cache_misses, summed.header_cache_misses);
  EXPECT_EQ(merged.errors, summed.errors);
  expect_every_shard_accepted(*runner.serve);
}

// -------------------------------------------------------- drain broadcast

TEST(ShardedServe, DrainSendsGoawayOnEveryShardAndMergesTraceUntorn) {
  trace::RingRecorder tape;
  netio::ShardedServeOptions opts;
  opts.base.profile_key = "nginx";
  opts.base.recorder = &tape;
  opts.shards = 3;
  ShardedRunner runner(opts);
  ASSERT_TRUE(runner.serve);

  const int conns = kConnsPerShard * static_cast<int>(opts.shards);
  std::vector<std::unique_ptr<netio::SocketClient>> clients;
  for (int i = 0; i < conns; ++i) {
    auto sock = netio::SocketClient::connect("127.0.0.1", runner.serve->port());
    ASSERT_TRUE(sock.ok()) << sock.status().message();
    const std::uint32_t sid = sock.value()->client().send_request("/");
    ASSERT_TRUE(sock.value()
                    ->pump_until([sid](core::ClientConnection& c) {
                      return c.stream_complete(sid);
                    })
                    .ok());
    clients.push_back(std::move(sock.value()));
  }

  // Drain with idle connections parked on every shard: the broadcast must
  // reach all three reactors, and each engine must GOAWAY its peer.
  runner.serve->request_shutdown();
  for (auto& sock : clients) {
    const Status pumped = sock->pump_until(
        [](core::ClientConnection& c) { return c.goaway_received(); });
    EXPECT_TRUE(pumped.ok()) << pumped.message();
    EXPECT_TRUE(sock->client().goaway_received());
  }
  clients.clear();
  runner.stop();

  const netio::ServeStats& stats = runner.serve->stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(conns));
  EXPECT_EQ(stats.served_clean, static_cast<std::uint64_t>(conns));
  EXPECT_EQ(stats.drain_expired, 0u);
  EXPECT_EQ(stats.trace_drops, 0u);
  expect_every_shard_accepted(*runner.serve);

  // The merged tape holds one contiguous segment per connection, and every
  // segment carries the drain GOAWAY (s2c, type 0x7).
  int segments = 0;
  std::vector<bool> goaway_in_segment;
  for (const auto& event : tape.decode()) {
    if (event.kind == trace::EventKind::kConnectionStart) {
      ++segments;
      goaway_in_segment.push_back(false);
      continue;
    }
    ASSERT_GT(segments, 0) << "record before any kConnectionStart";
    if (event.kind == trace::EventKind::kFrame &&
        event.dir == trace::Direction::kServerToClient &&
        event.frame_type == static_cast<std::uint8_t>(h2::FrameType::kGoaway)) {
      goaway_in_segment.back() = true;
    }
  }
  EXPECT_EQ(segments, conns);
  for (std::size_t i = 0; i < goaway_in_segment.size(); ++i) {
    EXPECT_TRUE(goaway_in_segment[i]) << "connection segment " << i;
  }
}

// ------------------------------------------------------ bounded shard tapes

TEST(ShardTapes, BoundedTapesMergeExactlyLikeUnboundedOnes) {
  // A small ring sink: shard tapes sized for it evict most of their
  // records, yet the merged ring must equal replaying unbounded tapes —
  // records, note table, first_seq and drops, i.e. the binary dump.
  constexpr std::size_t kRing = 16;
  trace::RingRecorder reference(kRing);
  trace::RingRecorder merged(kRing);
  for (auto* sink : {&reference, &merged}) {
    for (int i = 0; i < 5; ++i) sink->begin_connection("before-merge");
  }
  std::vector<std::unique_ptr<trace::RingRecorder>> unbounded;
  std::vector<std::unique_ptr<trace::RingRecorder>> bounded;
  // Shards that overflow the ring, fit it, fill it exactly, and trail.
  for (const int records : {40, 5, 16, 23, 3}) {
    unbounded.push_back(std::make_unique<trace::RingRecorder>(0));
    bounded.push_back(std::make_unique<trace::RingRecorder>(merged.capacity()));
    const std::string shard = std::to_string(unbounded.size());
    for (int i = 0; i < records; ++i) {
      const std::string label = "conn-" + shard + "-" + std::to_string(i);
      for (auto* tape : {unbounded.back().get(), bounded.back().get()}) {
        if (i % 7 == 0) {
          tape->begin_connection(label);
        } else {
          tape->record({.dir = trace::Direction::kServerToClient,
                        .stream_id = static_cast<std::uint32_t>(i),
                        .frame_type = static_cast<std::uint8_t>(i % 10),
                        .detail_a = static_cast<std::uint32_t>(records),
                        .note = i % 3 == 0 ? std::string_view("note-" + shard)
                                           : std::string_view()});
        }
      }
    }
  }
  EXPECT_GT(bounded.front()->drops(), 0u);
  for (const auto& tape : unbounded) tape->replay_into(reference);
  netio::merge_shard_tapes(bounded, merged);

  EXPECT_EQ(merged.drops(), reference.drops());
  EXPECT_EQ(merged.first_seq(), reference.first_seq());
  EXPECT_EQ(merged.events_recorded(), reference.events_recorded());
  std::string want;
  std::string got;
  reference.serialize(want);
  merged.serialize(got);
  EXPECT_EQ(got, want);
  const auto want_events = reference.decode();
  const auto got_events = merged.decode();
  ASSERT_EQ(got_events.size(), want_events.size());
  for (std::size_t i = 0; i < got_events.size(); ++i) {
    EXPECT_EQ(got_events[i].seq, want_events[i].seq);
    EXPECT_EQ(got_events[i].note, want_events[i].note);
    EXPECT_EQ(got_events[i].stream_id, want_events[i].stream_id);
  }
}

TEST(ShardTapes, UnboundedSinksKeepUnboundedTapes) {
  // An unbounded ring sizes its shard tapes unbounded too, so the merge
  // keeps every record every shard saw.
  trace::RingRecorder sink(0);
  std::vector<std::unique_ptr<trace::RingRecorder>> tapes;
  for (int shard = 0; shard < 2; ++shard) {
    tapes.push_back(std::make_unique<trace::RingRecorder>(sink.capacity()));
    tapes.back()->begin_connection("conn-" + std::to_string(shard));
    for (int i = 0; i < 5000; ++i) {
      tapes.back()->record({.kind = trace::EventKind::kRoundMark});
    }
  }
  netio::merge_shard_tapes(tapes, sink);
  EXPECT_EQ(sink.capacity(), 0u);
  EXPECT_EQ(sink.drops(), 0u);
  EXPECT_EQ(sink.size(), 2u * 5001u);
  EXPECT_EQ(sink.note_at(5001), "conn-1");
}

TEST(ShardedServe, SmallRingSinkHoldsTheNewestRecords) {
  // Live, under load into a 64-record ring: at one shard, shard 0 records
  // straight into the ring; at two, shard 1's tape is merged after it. The
  // merge carries the tape's evictions, so numbering stays gapless either
  // way: every record the shards ever saw is either retained or counted as
  // dropped.
  for (const unsigned shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    trace::RingRecorder sink(64);
    netio::ShardedServeOptions opts;
    opts.base.profile_key = "nginx";
    opts.base.recorder = &sink;
    opts.shards = shards;
    ShardedRunner runner(opts);
    ASSERT_TRUE(runner.serve);
    netio::LoadOptions load;
    load.port = runner.serve->port();
    load.connections = kConnsPerShard * static_cast<int>(opts.shards);
    load.requests = 10 * load.connections;
    load.streams = 2;
    EXPECT_EQ(netio::run_load(load).total_errors(), 0u);
    runner.stop();
    expect_every_shard_accepted(*runner.serve);

    EXPECT_EQ(sink.size(), 64u);
    EXPECT_GT(sink.drops(), 0u);
    EXPECT_EQ(sink.first_seq(), sink.drops());
    EXPECT_EQ(sink.events_recorded(), sink.drops() + sink.size());
    const auto events = sink.decode();
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].seq, sink.first_seq() + i);
    }
  }
}

// ------------------------------------------------------- caller errors

/// Entries in a /proc/self directory: open fds or live threads.
std::size_t proc_self_entries(const char* dir) {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string("/proc/self/") + dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ShardedServe, OutOfContractOptionsAreInvalidArguments) {
  netio::ShardedServeOptions zero;
  zero.shards = 0;
  netio::ShardedServeOptions too_many;
  too_many.shards = 65;
  netio::ShardedServeOptions unknown_profile;
  unknown_profile.base.profile_key = "nope";
  unknown_profile.shards = 2;
  for (const auto* opts : {&zero, &too_many, &unknown_profile}) {
    SCOPED_TRACE(opts->base.profile_key + " x" + std::to_string(opts->shards));
    const std::size_t fds = proc_self_entries("fd");
    const std::size_t threads = proc_self_entries("task");
    const auto created = netio::ShardedServe::create(*opts);
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
        << created.status().message();
    // Nothing the failed call opened survives it: no listener, no reactor
    // fd, no thread.
    EXPECT_EQ(proc_self_entries("fd"), fds);
    EXPECT_EQ(proc_self_entries("task"), threads);
  }
}

// --------------------------------------------------- wire-behaviour parity

/// The unsharded reference: one GET served in-process.
std::string lockstep_reference(const std::string& profile_key) {
  server::Http2Server server(server::profile_by_key(profile_key),
                             server::Site::standard_testbed_site());
  core::ClientConnection client;
  client.send_request("/");
  net::LockstepTransport().run(client, server);
  return fingerprint(client);
}

TEST(ShardedServe, ShardingNeverAltersWireBehaviour) {
  for (const std::string profile : {"nginx", "h2o"}) {
    const std::string reference = lockstep_reference(profile);
    ASSERT_FALSE(reference.empty());
    netio::ShardedServeOptions opts;
    opts.base.profile_key = profile;
    opts.shards = 2;
    ShardedRunner runner(opts);
    ASSERT_TRUE(runner.serve);
    // One connection at a time, enough of them that both shards answer.
    const int conns = kConnsPerShard * static_cast<int>(opts.shards);
    for (int i = 0; i < conns; ++i) {
      EXPECT_EQ(sharded_socket_fingerprint(runner.serve->port()), reference)
          << profile << " connection " << i;
    }
    runner.stop();
    expect_every_shard_accepted(*runner.serve);
  }
}

// ------------------------------------------------- header-block cache

struct LockstepOutcome {
  std::string print;
  std::uint64_t responses = 0;  ///< HEADERS blocks received, pushes included
  std::uint64_t hits = 0;       ///< booked on the attached cache by this run
  std::uint64_t misses = 0;
};

/// One Site shared by every engine of a test, as a shard's engines share
/// one: cache entries are keyed by Resource pointer.
std::shared_ptr<const server::Site> common_site(bool cookie_churn = false) {
  server::Site site = server::Site::standard_testbed_site();
  site.set_cookie_churn(cookie_churn);
  return std::make_shared<const server::Site>(std::move(site));
}

/// Serves @p repeats GETs for "/" over one lockstep connection with
/// @p cache attached (null = no cache). With @p resize_after >= 0 the client
/// shrinks the server's HPACK encode table via SETTINGS after that many
/// requests.
LockstepOutcome serve_repeats(const std::string& profile_key,
                              const std::shared_ptr<const server::Site>& site,
                              server::SharedBlockCache* cache, int repeats,
                              int resize_after = -1) {
  server::Http2Server server(std::make_shared<const server::ServerProfile>(
                                 server::profile_by_key(profile_key)),
                             site);
  server.set_shared_block_cache(cache);
  const std::uint64_t hits_before = cache != nullptr ? cache->hits : 0;
  const std::uint64_t misses_before = cache != nullptr ? cache->misses : 0;
  core::ClientConnection client;
  for (int i = 0; i < repeats; ++i) {
    if (i == resize_after) {
      client.send_settings({{h2::SettingId::kHeaderTableSize, 64}});
    }
    client.send_request("/");
  }
  net::LockstepTransport().run(client, server);
  LockstepOutcome out{fingerprint(client)};
  for (const auto& received : client.events()) {
    if (received.frame.type() == h2::FrameType::kHeaders) ++out.responses;
  }
  if (cache != nullptr) {
    out.hits = cache->hits - hits_before;
    out.misses = cache->misses - misses_before;
  }
  return out;
}

TEST(HeaderBlockCache, CachedBlocksAreByteIdenticalToFreshEncodes) {
  const auto site = common_site();
  for (const std::string profile : {"nginx", "h2o"}) {
    server::SharedBlockCache cache;
    const LockstepOutcome cached = serve_repeats(profile, site, &cache, 8);
    const LockstepOutcome fresh = serve_repeats(profile, site, nullptr, 8);
    ASSERT_FALSE(cached.print.empty());
    EXPECT_EQ(cached.print, fresh.print) << profile;
    EXPECT_GE(cached.responses, 8u) << profile;
    EXPECT_EQ(cached.hits + cached.misses, cached.responses) << profile;
    if (profile == "nginx") {
      // nginx never indexes response headers: one miss, then every repeat
      // hits.
      EXPECT_EQ(cached.misses, 1u);
      EXPECT_EQ(cached.hits, 7u);
    }
  }
}

TEST(HeaderBlockCache, PristineEnginesOnOneShardShareBlocks) {
  const auto site = common_site();
  server::SharedBlockCache cache;
  const LockstepOutcome first = serve_repeats("nginx", site, &cache, 1);
  const LockstepOutcome second = serve_repeats("nginx", site, &cache, 1);
  const LockstepOutcome fresh = serve_repeats("nginx", site, nullptr, 1);
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.misses, 1u);
  // The second connection's very first response replays the block the
  // first connection encoded, byte for byte.
  EXPECT_EQ(second.hits, 1u);
  EXPECT_EQ(second.misses, 0u);
  ASSERT_FALSE(fresh.print.empty());
  EXPECT_EQ(second.print, fresh.print);
  EXPECT_EQ(first.print, fresh.print);
  EXPECT_EQ(cache.entries.size(), 1u);
}

TEST(HeaderBlockCache, IndexingEncodesAreNeverStored) {
  const auto site = common_site();
  // h2o indexes response headers aggressively: its first encode inserts into
  // the dynamic table, so neither that block nor any later one (encoded
  // against a non-empty table) may be shared.
  server::SharedBlockCache cache;
  const LockstepOutcome cached = serve_repeats("h2o", site, &cache, 8);
  EXPECT_TRUE(cache.entries.empty());
  EXPECT_EQ(cached.hits, 0u);
  EXPECT_GE(cached.misses, 8u);
  EXPECT_EQ(cached.misses, cached.responses);
}

TEST(HeaderBlockCache, CookieChurnSitesNeverServeCachedBlocks) {
  const auto site = common_site(/*cookie_churn=*/true);
  server::SharedBlockCache cache;
  const LockstepOutcome cached = serve_repeats("nginx", site, &cache, 6);
  const LockstepOutcome fresh = serve_repeats("nginx", site, nullptr, 6);
  ASSERT_FALSE(cached.print.empty());
  // Every response carries a fresh set-cookie, so a replayed block would be
  // visibly wrong — the cache must stand aside entirely.
  EXPECT_EQ(cached.print, fresh.print);
  EXPECT_EQ(cached.hits, 0u);
  EXPECT_TRUE(cache.entries.empty());
}

TEST(HeaderBlockCache, PeerTableResizeInvalidatesWithoutCorruption) {
  const auto site = common_site();
  for (const std::string profile : {"nginx", "h2o"}) {
    server::SharedBlockCache cache;
    const LockstepOutcome cached = serve_repeats(profile, site, &cache, 8, 1);
    const LockstepOutcome fresh = serve_repeats(profile, site, nullptr, 8, 1);
    ASSERT_FALSE(cached.print.empty());
    // A §6.3 table-size update changes every block encoded after it; stale
    // entries from before the resize must never replay.
    EXPECT_EQ(cached.print, fresh.print) << profile;
  }
}

TEST(HeaderBlockCache, PeerTableResizeStopsMatching) {
  const auto site = common_site();
  server::SharedBlockCache cache;
  serve_repeats("nginx", site, &cache, 1);
  ASSERT_EQ(cache.entries.size(), 1u);
  // The peer resizes the table before its first request: every block this
  // engine emits differs from the pristine one (the first opens with a §6.3
  // size update), so none may come from the cache.
  const LockstepOutcome resized = serve_repeats("nginx", site, &cache, 4, 0);
  const LockstepOutcome fresh = serve_repeats("nginx", site, nullptr, 4, 0);
  EXPECT_EQ(resized.hits, 0u);
  EXPECT_EQ(resized.misses, 4u);
  EXPECT_EQ(resized.print, fresh.print);
  EXPECT_EQ(cache.entries.size(), 1u);
}

}  // namespace
}  // namespace h2r
