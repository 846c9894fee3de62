// End-to-end tests for the real-socket serving mode: a one-shard
// ShardedServe + load generator pair on loopback, graceful shutdown
// semantics, and the socket error taxonomy (refused connects, abrupt
// resets, non-h2 clients, the max_connections slot gate).
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <netinet/in.h>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/client.h"
#include "h2/constants.h"
#include "netio/load.h"
#include "netio/serve_shard.h"
#include "netio/socket.h"
#include "trace/annotate.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace h2r {
namespace {

/// One shard serving on a background thread: shard 0 runs on that thread
/// and records straight into the caller's sink.
struct RunningServer {
  explicit RunningServer(const netio::ServeOptions& opts) {
    auto created = netio::ShardedServe::create({.base = opts, .shards = 1});
    EXPECT_TRUE(created.ok()) << created.status().message();
    serve = std::move(created).value();
    thread = std::thread([this] {
      const Status s = serve->run();
      EXPECT_TRUE(s.ok()) << s.message();
    });
  }
  ~RunningServer() {
    if (thread.joinable()) {
      serve->request_shutdown();
      thread.join();
    }
  }
  void stop() {
    serve->request_shutdown();
    thread.join();
  }

  std::unique_ptr<netio::ShardedServe> serve;
  std::thread thread;
};

TEST(ServeLoopback, LoadRunCompletesWithZeroErrors) {
  netio::ServeOptions sopts;
  sopts.profile_key = "h2o";
  RunningServer server(sopts);

  netio::LoadOptions lopts;
  lopts.port = server.serve->port();
  lopts.connections = 4;
  lopts.requests = 100;
  lopts.streams = 4;
  const netio::LoadReport report = netio::run_load(lopts);

  EXPECT_EQ(report.completed, 100u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.total_errors(), 0u);
  EXPECT_EQ(report.clean_closes, 4u);
  EXPECT_GT(report.rps, 0.0);
  EXPECT_EQ(report.latency_ms.size(), 100u);

  server.stop();
  const netio::ServeStats& stats = server.serve->stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.served_clean, 4u);
  EXPECT_EQ(stats.disconnected, 0u);
  EXPECT_TRUE(stats.errors.empty());
}

TEST(ServeLoopback, HardenedProfileServesWellBehavedLoadCleanly) {
  netio::ServeOptions sopts;
  sopts.profile_key = "nginx";
  sopts.hardened = true;
  RunningServer server(sopts);

  netio::LoadOptions lopts;
  lopts.port = server.serve->port();
  lopts.connections = 2;
  lopts.requests = 50;
  lopts.streams = 2;
  const netio::LoadReport report = netio::run_load(lopts);

  // Mitigation budgets must not fire on legitimate traffic (the PR-6
  // false-positive guarantee, now over a real socket).
  EXPECT_EQ(report.completed, 50u);
  EXPECT_EQ(report.total_errors(), 0u);
  server.stop();
  EXPECT_EQ(server.serve->stats().served_clean, 2u);
}

TEST(ServeLoopback, GracefulShutdownSendsGoawayAndFlushesWholeTrace) {
  trace::RingRecorder recorder;
  netio::ServeOptions sopts;
  sopts.profile_key = "h2o";
  sopts.recorder = &recorder;
  RunningServer server(sopts);

  auto sock = netio::SocketClient::connect("127.0.0.1", server.serve->port());
  ASSERT_TRUE(sock.ok()) << sock.status().message();
  auto& client = sock.value()->client();
  const std::uint32_t sid = client.send_request("/");
  ASSERT_TRUE(sock.value()
                  ->pump_until([sid](core::ClientConnection& c) {
                    return c.stream_complete(sid);
                  })
                  .ok());

  // Shut the listener down while the connection is idle-open: the engine
  // must say GOAWAY before the socket closes.
  server.serve->request_shutdown();
  ASSERT_TRUE(sock.value()
                  ->pump_until([](core::ClientConnection& c) {
                    return c.goaway_received() || !c.alive();
                  })
                  .ok());
  EXPECT_TRUE(client.goaway_received());
  server.thread.join();

  // The retained trace is a complete, untorn event stream: annotation and
  // JSONL serialization both walk it end to end, and every line is a
  // balanced JSON object. The engine tapes the remote client's frames too
  // (c2s), so the segment is a faithful wiretap — the flow-control
  // annotator must find nothing to flag in a clean serve.
  std::vector<trace::TraceEvent> events = recorder.decode();
  ASSERT_FALSE(events.empty());
  std::size_t starts = 0;
  std::size_t c2s_frames = 0;
  for (const auto& event : events) {
    if (event.kind == trace::EventKind::kConnectionStart) ++starts;
    if (event.kind == trace::EventKind::kFrame &&
        event.dir == trace::Direction::kClientToServer) {
      ++c2s_frames;
    }
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_GT(c2s_frames, 0u);
  trace::TagCounts tags;
  trace::RecordTags record_tags;
  trace::annotate_ring(recorder, tags, nullptr, &record_tags);
  EXPECT_TRUE(tags.empty());
  std::string jsonl;
  trace::append_annotated_jsonl(jsonl, recorder, record_tags);
  ASSERT_FALSE(jsonl.empty());
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "torn trailing line";
    EXPECT_EQ(jsonl[start], '{');
    EXPECT_EQ(jsonl[end - 1], '}');
    ++lines;
    start = end + 1;
  }
  EXPECT_GT(lines, 0u);
}

TEST(ServeLoopback, ConnectionRefusedLandsInTheTaxonomy) {
  // Bind-then-close guarantees a dead port.
  auto listener = netio::listen_loopback(0, 1);
  ASSERT_TRUE(listener.ok());
  auto dead_port = netio::local_port(listener.value().get());
  ASSERT_TRUE(dead_port.ok());
  listener.value().reset();

  netio::LoadOptions lopts;
  lopts.port = dead_port.value();
  lopts.connections = 2;
  lopts.requests = 10;
  lopts.connect_timeout_ms = 2000;
  lopts.run_timeout_ms = 5000;
  const netio::LoadReport report = netio::run_load(lopts);

  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.failed, 10u);
  EXPECT_EQ(report.connect_errors, 2u);
  EXPECT_TRUE(report.errors.contains("ECONNREFUSED") ||
              report.errors.contains("connect"))
      << report.json();
}

TEST(ServeLoopback, AbruptResetCountsAsEconnreset) {
  netio::ServeOptions sopts;
  sopts.profile_key = "h2o";
  RunningServer server(sopts);

  auto fd = netio::connect_tcp("127.0.0.1", server.serve->port());
  ASSERT_TRUE(fd.ok());
  pollfd ready{fd.value().get(), POLLOUT, 0};
  ASSERT_GT(::poll(&ready, 1, 2000), 0);
  ASSERT_EQ(netio::pending_socket_error(fd.value().get()), 0);

  // Full preface so the listener finishes its sniff and parks the engine,
  // then SO_LINGER(0) + close turns our close into an RST on the wire.
  ASSERT_EQ(::send(fd.value().get(), h2::kClientPreface.data(),
                   h2::kClientPreface.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(h2::kClientPreface.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  struct linger hard {};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ASSERT_EQ(::setsockopt(fd.value().get(), SOL_SOCKET, SO_LINGER, &hard,
                         sizeof(hard)),
            0);
  fd.value().reset();  // close → RST

  // Give the reactor a moment to observe the reset, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.stop();
  const netio::ServeStats& stats = server.serve->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.disconnected, 1u);
  EXPECT_TRUE(stats.errors.contains("ECONNRESET")) << stats.json();
}

TEST(ServeLoopback, PlainHttp1ClientIsDeclinedNotCrashed) {
  netio::ServeOptions sopts;
  sopts.profile_key = "h2o";
  RunningServer server(sopts);

  auto fd = netio::connect_tcp("127.0.0.1", server.serve->port());
  ASSERT_TRUE(fd.ok());
  pollfd ready{fd.value().get(), POLLOUT, 0};
  ASSERT_GT(::poll(&ready, 1, 2000), 0);
  ASSERT_EQ(netio::pending_socket_error(fd.value().get()), 0);

  const std::string request =
      "GET / HTTP/1.1\r\nHost: loopback.test\r\n\r\n";
  ASSERT_EQ(::send(fd.value().get(), request.data(), request.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));

  // The engine answers in HTTP/1.1 and closes; read until EOF.
  std::string answer;
  char buf[512];
  while (true) {
    pollfd readable{fd.value().get(), POLLIN, 0};
    ASSERT_GT(::poll(&readable, 1, 2000), 0) << "no HTTP/1.1 answer";
    const ssize_t n = ::recv(fd.value().get(), buf, sizeof(buf), 0);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    answer.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(answer.rfind("HTTP/1.1", 0), 0u) << answer;
  fd.value().reset();

  server.stop();
  EXPECT_EQ(server.serve->stats().declined_h1, 1u);
}

TEST(ServeLoopback, SlotGateClosesTheConnectionBeyondMaxConnections) {
  netio::ServeOptions sopts;
  sopts.profile_key = "nginx";
  sopts.max_connections = 2;
  RunningServer server(sopts);

  // Two connections take both slots. The server's SETTINGS proves each one
  // was adopted: the engine that sends it exists only after the accept.
  std::vector<std::unique_ptr<netio::SocketClient>> held;
  for (int i = 0; i < 2; ++i) {
    auto sock = netio::SocketClient::connect("127.0.0.1", server.serve->port());
    ASSERT_TRUE(sock.ok()) << sock.status().message();
    ASSERT_TRUE(sock.value()
                    ->pump_until([](core::ClientConnection& c) {
                      return c.server_settings_received();
                    })
                    .ok());
    held.push_back(std::move(sock.value()));
  }

  // The third is accepted and closed at once: the client reads EOF (or a
  // reset) without sending a byte.
  auto fd = netio::connect_tcp("127.0.0.1", server.serve->port());
  ASSERT_TRUE(fd.ok());
  pollfd readable{fd.value().get(), POLLIN, 0};
  ASSERT_GT(::poll(&readable, 1, 2000), 0) << "third connection left open";
  char byte = 0;
  const ssize_t n = ::recv(fd.value().get(), &byte, 1, 0);
  EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET)) << n;
  fd.value().reset();

  // The two held connections still serve a GET and close clean.
  for (auto& sock : held) {
    const std::uint32_t sid = sock->client().send_request("/");
    ASSERT_TRUE(sock->pump_until([sid](core::ClientConnection& c) {
                      return c.stream_complete(sid);
                    })
                    .ok());
    EXPECT_TRUE(sock->finish().ok());
  }
  held.clear();

  server.stop();
  const netio::ServeStats& stats = server.serve->stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.accept_refused, 1u);
  EXPECT_EQ(stats.served_clean, 2u);
  EXPECT_EQ(stats.disconnected, 0u);
  ASSERT_EQ(stats.errors.size(), 1u) << stats.json();
  EXPECT_EQ(stats.errors.at("overloaded"), 1u);
}

}  // namespace
}  // namespace h2r
