// netio unit + integration tests: the shared timer wheel, strict CLI/env
// parsing, the errno → terminal-taxonomy mapping, the load generator's
// verdict on an undecodable response, the write backlog under a
// slow reader, and the load-bearing property of the whole subsystem — that
// a real-socket exchange is observably identical to the lockstep transport
// for the same profile.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "net/readiness.h"
#include "net/transport.h"
#include "netio/load.h"
#include "netio/serve_shard.h"
#include "netio/socket.h"
#include "netio/socket_transport.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"
#include "util/parse.h"

namespace h2r {
namespace {

// ----------------------------------------------------------- timer wheel

TEST(TimerWheel, DrainsInTickOrderThenInsertionOrder) {
  net::TimerWheel<int> wheel;
  wheel.park(30, 1);
  wheel.park(10, 2);
  wheel.park(30, 3);
  wheel.park(20, 4);
  EXPECT_EQ(wheel.parked(), 4u);
  EXPECT_EQ(wheel.next_tick(), 10u);

  auto first = wheel.pop_next();
  EXPECT_EQ(first.first, 10u);
  EXPECT_EQ(first.second, std::vector<int>{2});

  auto second = wheel.pop_next();
  EXPECT_EQ(second.first, 20u);
  EXPECT_EQ(second.second, std::vector<int>{4});

  // Same tick drains in insertion order.
  auto third = wheel.pop_next();
  EXPECT_EQ(third.first, 30u);
  EXPECT_EQ(third.second, (std::vector<int>{1, 3}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, PopDueSweepsEverythingAtOrBeforeTheTick) {
  net::TimerWheel<int> wheel;
  wheel.park(5, 1);
  wheel.park(7, 2);
  wheel.park(9, 3);
  EXPECT_TRUE(wheel.pop_due(4).empty());
  EXPECT_EQ(wheel.pop_due(7), (std::vector<int>{1, 2}));
  EXPECT_EQ(wheel.parked(), 1u);
  EXPECT_EQ(wheel.pop_due(100), std::vector<int>{3});
  EXPECT_TRUE(wheel.empty());
}

// ---------------------------------------------------------- strict parse

TEST(StrictParse, AcceptsWholeStringsOnly) {
  EXPECT_EQ(strict_long("42"), 42);
  EXPECT_EQ(strict_long("-7"), -7);
  EXPECT_EQ(strict_long(" 8"), 8);  // strtol skips leading whitespace
  EXPECT_FALSE(strict_long("2x10").has_value());
  EXPECT_FALSE(strict_long("42 ").has_value());
  EXPECT_FALSE(strict_long("").has_value());
  EXPECT_FALSE(strict_long(nullptr).has_value());

  EXPECT_EQ(strict_double("1.5"), 1.5);
  EXPECT_FALSE(strict_double("1.5abc").has_value());
  EXPECT_FALSE(strict_double("abc").has_value());
}

TEST(StrictParse, RangeCheckRejectsOutOfBounds) {
  EXPECT_EQ(strict_long_in("3000", 0, 65535), 3000);
  EXPECT_FALSE(strict_long_in("65536", 0, 65535).has_value());
  EXPECT_FALSE(strict_long_in("-1", 0, 65535).has_value());
  EXPECT_FALSE(strict_long_in("80x", 0, 65535).has_value());
}

// ---------------------------------------------------------- errno mapping

TEST(ErrnoTaxonomy, ConnectionLossMapsToUnavailable) {
  for (const int err : {ECONNRESET, EPIPE, ECONNREFUSED, ECONNABORTED,
                        ETIMEDOUT, EHOSTUNREACH, ENETUNREACH}) {
    const Status s = netio::errno_status(err, "test");
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << netio::errno_key(err);
  }
}

TEST(ErrnoTaxonomy, ResourceExhaustionMapsToRefused) {
  for (const int err : {EMFILE, ENFILE, ENOBUFS, ENOMEM}) {
    const Status s = netio::errno_status(err, "test");
    EXPECT_EQ(s.code(), StatusCode::kRefused) << netio::errno_key(err);
  }
}

TEST(ErrnoTaxonomy, KeysAreStableNames) {
  EXPECT_EQ(netio::errno_key(ECONNRESET), "ECONNRESET");
  EXPECT_EQ(netio::errno_key(EPIPE), "EPIPE");
  EXPECT_EQ(netio::errno_key(EMFILE), "EMFILE");
  // Unnamed errnos still get a stable, greppable key.
  EXPECT_EQ(netio::errno_key(9999), "errno-9999");
}

// ------------------------------------------------- load generator verdicts

// A server whose first response carries an HPACK block that cannot decode
// (indexed field 0). The load generator keeps no per-frame evidence, so the
// connection must end as a protocol error with its request failed, not
// served.
TEST(LoadGenerator, UndecodableHeaderBlockIsAProtocolError) {
  auto listener = netio::listen_loopback(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status().message();
  auto port = netio::local_port(listener.value().get());
  ASSERT_TRUE(port.ok());

  std::thread peer([fd = listener.value().get()] {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 5000) != 1) return;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) return;
    Bytes out = h2::serialize_frame(h2::make_settings({}));
    const Bytes headers = h2::serialize_frame(h2::make_headers(
        1, Bytes{0x80}, /*end_stream=*/true, /*end_headers=*/true));
    out.insert(out.end(), headers.begin(), headers.end());
    EXPECT_EQ(::send(conn, out.data(), out.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(out.size()));
    // Read until the load generator hangs up.
    std::uint8_t sink[4096];
    pollfd c{conn, POLLIN, 0};
    while (::poll(&c, 1, 5000) == 1 && ::recv(conn, sink, sizeof(sink), 0) > 0) {
    }
    ::close(conn);
  });

  netio::LoadOptions opts;
  opts.port = port.value();
  opts.connections = 1;
  opts.requests = 1;
  opts.streams = 1;
  opts.run_timeout_ms = 5000;
  const netio::LoadReport report = netio::run_load(opts);
  peer.join();
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.protocol_errors, 1u);
  EXPECT_EQ(report.total_errors(), 1u);
  EXPECT_EQ(report.errors.count("protocol"), 1u);
}

// ------------------------------------------- write backlog under a slow read

/// Forwards to the engine and keeps a copy of every octet it produced, so
/// the test can compare what the peer read against what was sent.
class RecordingServer final : public net::Endpoint {
 public:
  explicit RecordingServer(server::Http2Server& engine) : engine_(engine) {}
  [[nodiscard]] Bytes take_output() override {
    Bytes out = engine_.take_output();
    produced.insert(produced.end(), out.begin(), out.end());
    return out;
  }
  void receive(std::span<const std::uint8_t> bytes) override {
    engine_.receive(bytes);
  }
  void recycle(Bytes buffer) override { engine_.recycle(std::move(buffer)); }
  [[nodiscard]] bool alive() const override { return engine_.alive(); }

  Bytes produced;

 private:
  server::Http2Server& engine_;
};

// A peer with a 16 MiB stream window that reads 2 KiB per turn behind a
// small kernel send buffer keeps the server's write backlog from emptying:
// each connection WINDOW_UPDATE it sends lets the engine append more DATA
// behind octets the kernel has not taken yet. Across eight 512 KiB GETs
// the backlog must hold only unsent octets, never everything sent since it
// last emptied, and the peer must read exactly what the engine produced.
TEST(SocketBacklog, SlowReaderBacklogHoldsOnlyUnsentOctets) {
  // A stream socketpair rather than TCP loopback: same send() semantics,
  // but no delayed-ACK or receive-window pacing to slow the test down. The
  // small send buffer is what forces short writes.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  netio::Fd server_end(fds[0]);
  netio::Fd peer(fds[1]);
  const int peer_fd = peer.get();
  const int small_buffer = 4096;
  ASSERT_EQ(::setsockopt(server_end.get(), SOL_SOCKET, SO_SNDBUF,
                         &small_buffer, sizeof small_buffer),
            0);

  server::Http2Server engine(server::profile_by_key("nginx"),
                             server::Site::standard_testbed_site());
  RecordingServer recording(engine);
  netio::SocketTransport transport(std::move(server_end));
  net::ExchangeDriver driver(transport, transport.wire(), recording,
                             {.max_rounds = 1 << 30});

  core::ClientOptions options;
  options.with_initial_window(1u << 24);
  core::ClientConnection client(options);
  std::vector<std::uint32_t> streams;
  for (int i = 0; i < 8; ++i) {
    streams.push_back(client.send_request("/large/" + std::to_string(i)));
  }
  const auto all_complete = [&] {
    return std::all_of(streams.begin(), streams.end(),
                       [&](std::uint32_t sid) {
                         return client.stream_complete(sid);
                       });
  };

  Bytes received;
  std::size_t peak_unsent = 0;
  std::size_t peak_capacity = 0;
  int idle_turns = 0;
  while (!(all_complete() && received.size() == recording.produced.size())) {
    ASSERT_TRUE(client.alive()) << "peer saw a garbled stream";
    ASSERT_LT(idle_turns, 100) << "slow read stalled";
    // Peer → server: the preface, the GETs and each WINDOW_UPDATE.
    Bytes request = client.take_output();
    for (std::size_t off = 0; off < request.size();) {
      const ssize_t n = ::send(peer_fd, request.data() + off,
                               request.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EINTR));
      pollfd writable{peer_fd, POLLOUT, 0};
      (void)::poll(&writable, 1, 100);
    }
    client.recycle(std::move(request));

    // One event-loop turn of the server.
    if (driver.state() == net::ExchangeDriver::State::kParked) {
      driver.unpark();
    }
    ASSERT_NE(driver.pump(), net::ExchangeDriver::State::kDone);
    peak_unsent = std::max(peak_unsent, transport.unsent_bytes());
    peak_capacity = std::max(peak_capacity, transport.outbound_capacity());

    // The slow read: at most 2 KiB per turn.
    std::uint8_t chunk[2048];
    const ssize_t n = ::recv(peer_fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      const std::span<const std::uint8_t> got(chunk,
                                              static_cast<std::size_t>(n));
      received.insert(received.end(), got.begin(), got.end());
      client.receive(got);
      idle_turns = 0;
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EINTR))
        << "peer read failed: n=" << n << " errno=" << errno;
    ++idle_turns;
    pollfd readable{peer_fd, POLLIN, 0};
    (void)::poll(&readable, 1, 10);
  }

  for (const std::uint32_t sid : streams) {
    EXPECT_EQ(client.data_received(sid), 512u * 1024u);
  }
  EXPECT_TRUE(received == recording.produced)
      << "peer read " << received.size() << " octets, engine produced "
      << recording.produced.size() << " (or same length, different order)";
  // The backlog really stayed behind the kernel...
  EXPECT_GT(peak_unsent, 32u * 1024u);
  // ...yet its allocation tracked the unsent octets, not the 4 MiB served.
  EXPECT_LE(peak_capacity, 4 * peak_unsent + 64 * 1024)
      << "peak unsent " << peak_unsent;
  EXPECT_LT(peak_capacity * 8, recording.produced.size());
}

// ------------------------------------------------- lockstep vs real socket

/// Everything a client can observe about a conversation, flattened into a
/// comparable string: frame types, stream ids, flags, parsed payload sizes
/// and decoded header lists, in arrival order.
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

/// The lockstep reference: one GET served entirely in-process.
std::string lockstep_fingerprint(const std::string& profile_key) {
  server::Http2Server server(server::profile_by_key(profile_key),
                             server::Site::standard_testbed_site());
  core::ClientConnection client;
  client.send_request("/");
  net::LockstepTransport().run(client, server);
  return fingerprint(client);
}

/// The same GET through a real listener on an ephemeral loopback port.
std::string socket_fingerprint(const std::string& profile_key) {
  netio::ShardedServeOptions opts;
  opts.base.profile_key = profile_key;
  auto serve = netio::ShardedServe::create(opts);
  EXPECT_TRUE(serve.ok()) << serve.status().message();
  std::thread server_thread([&] { EXPECT_TRUE(serve.value()->run().ok()); });

  std::string print;
  {
    auto sock =
        netio::SocketClient::connect("127.0.0.1", serve.value()->port());
    EXPECT_TRUE(sock.ok()) << sock.status().message();
    auto& client = sock.value()->client();
    const std::uint32_t sid = client.send_request("/");
    const Status pumped = sock.value()->pump_until(
        [sid](core::ClientConnection& c) {
          if (!c.stream_complete(sid)) return false;
          // Wait out promised push streams too: the lockstep run drains
          // them, so the socket run must observe the same tail.
          for (const auto& [pushed_id, headers] : c.pushes()) {
            (void)headers;
            if (!c.stream_complete(pushed_id)) return false;
          }
          return true;
        });
    EXPECT_TRUE(pumped.ok()) << pumped.message();
    EXPECT_TRUE(sock.value()->finish().ok());
    print = fingerprint(client);
  }
  serve.value()->request_shutdown();
  server_thread.join();
  EXPECT_EQ(serve.value()->stats().served_clean, 1u);
  return print;
}

TEST(SocketFingerprint, H2oMatchesLockstep) {
  const std::string lockstep = lockstep_fingerprint("h2o");
  ASSERT_FALSE(lockstep.empty());
  EXPECT_EQ(socket_fingerprint("h2o"), lockstep);
}

TEST(SocketFingerprint, NginxMatchesLockstep) {
  const std::string lockstep = lockstep_fingerprint("nginx");
  ASSERT_FALSE(lockstep.empty());
  EXPECT_EQ(socket_fingerprint("nginx"), lockstep);
}

}  // namespace
}  // namespace h2r
