// One serve shard: profile-driven Http2Server engines behind real sockets.
//
// A ServeLoop is one ShardedServe shard, and ShardedServe is the only way
// to build one. The loop binds its own SO_REUSEPORT listener on the shared
// loopback port, accepts connections onto its epoll reactor, and runs one
// SocketTransport + ExchangeDriver + Http2Server triple per connection —
// the deviation engine the corpus scan probes, now answerable by curl.
// First bytes on every accepted socket are sniffed against the h2 client
// preface to pick the engine's start mode: a full preface match is a
// prior-knowledge client (StartMode::kTls — the TLS/ALPN step happened
// "outside" or is assumed), anything else is HTTP/1.1 text headed for the
// §3.2 Upgrade: h2c handshake (StartMode::kH2c). The sniffed octets
// re-enter the stream through the transport so the engine sees them
// unbroken.
//
// Every engine on one loop shares the loop's server::SharedBlockCache of
// static response header blocks, so repeated responses of a profile that
// never indexes them (nginx) skip HPACK encoding; ServeStats counts one hit
// or one miss per cacheable response.
//
// Shutdown is graceful by construction: request_shutdown() (async-signal-
// safe; h2serve wires SIGINT/SIGTERM to it) stops the accept path, sends
// GOAWAY on every live engine, and drains in-flight streams under a bounded
// deadline kept on a net::TimerWheel in milliseconds. Sockets
// that outlive the deadline are force-closed and counted.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/readiness.h"
#include "netio/event_loop.h"
#include "netio/socket.h"
#include "server/engine.h"
#include "trace/recorder.h"
#include "util/status.h"

namespace h2r::netio {

struct ServeOptions {
  /// ServerProfile key (server/profiles.h registry): "nginx", "h2o", ...
  std::string profile_key = "h2o";
  /// TCP port on 127.0.0.1; 0 = kernel-assigned (read back via port()).
  std::uint16_t port = 0;
  /// Opt the profile into MitigationPolicy::hardened().
  bool hardened = false;
  /// Graceful-shutdown drain budget: connections still open this many ms
  /// after request_shutdown() are force-closed.
  int drain_ms = 2000;
  /// Accepts beyond this many live connections are refused (closed
  /// immediately and counted as overload in the error taxonomy).
  std::size_t max_connections = 1024;
  /// Optional wiretap ring. Null = off. Each connection records onto a
  /// private ring tape of 4096 records (engine c2s+s2c frames, transport
  /// rounds) that is replayed into this sink whole when the connection
  /// retires, so the exported trace stays contiguous per connection
  /// segment however many sockets interleave on the reactor. A connection
  /// that records more keeps only its newest records, and the evictions
  /// count in ServeStats::trace_drops, so always-on tracing stays O(1) per
  /// connection no matter how long one lives.
  trace::RingRecorder* recorder = nullptr;
};

/// What the listener did, exportable as JSON after run() returns.
struct ServeStats {
  /// Sockets accept4() handed over. A socket the max_connections gate or
  /// the drain then refuses still counts here, and in accept_refused too.
  std::uint64_t accepted = 0;
  /// Exchanges that ended cleanly: engine-side close, or peer GOAWAY +
  /// close with no streams in flight (the load generator's normal exit).
  std::uint64_t served_clean = 0;
  /// Peer vanished mid-exchange (reset, abort, EOF with streams open).
  std::uint64_t disconnected = 0;
  /// HTTP/1.1 clients whose upgrade offer the profile declined (or that
  /// never offered one); answered with HTTP/1.1 and closed.
  std::uint64_t declined_h1 = 0;
  /// Accepts refused: an EMFILE-class errno (no socket, so not counted
  /// in accepted), or a gate refusal — max_connections ("overloaded") or
  /// drain ("shutting-down") — which counts in both accepted and here.
  std::uint64_t accept_refused = 0;
  /// Connections force-closed when the drain deadline expired.
  std::uint64_t drain_expired = 0;
  std::uint64_t rounds = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Trace records evicted from per-connection ring tapes before flush
  /// (oldest-first; see ServeOptions::recorder).
  std::uint64_t trace_drops = 0;
  /// Shard header-block cache (server::SharedBlockCache) tallies: one hit
  /// or one miss per cacheable response. Taken when the shard's run()
  /// returns, so responses to connections force-closed at the drain
  /// deadline are included (unlike rounds and bytes, booked at settle).
  std::uint64_t header_cache_hits = 0;
  std::uint64_t header_cache_misses = 0;
  /// Terminal error taxonomy: errno_key / classifier → count.
  std::map<std::string, std::uint64_t> errors;

  /// Folds another shard's tallies into this one: every counter adds, the
  /// error maps add per key. Shard merging is exactly summation — nothing
  /// a shard counts is double-counted or averaged.
  void merge(const ServeStats& other);

  [[nodiscard]] std::string json() const;
};

/// One serve shard; ShardedServe builds and runs every one.
class ServeLoop {
 public:
  ~ServeLoop();

  /// The port actually bound (resolves opts.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serves until request_shutdown() and the drain completes (or its
  /// deadline force-closes stragglers). Only returns early on reactor
  /// errors.
  Status run();

  /// Async-signal-safe: wakes the reactor and begins the graceful drain.
  void request_shutdown() noexcept { loop_.request_shutdown(); }

  [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }

 private:
  friend class ShardedServe;
  struct Conn;
  class AcceptHandler;

  /// Binds and registers the shard's SO_REUSEPORT listener. Fails with
  /// InvalidArgument on an unknown profile key, or with the bind or
  /// reactor construction error.
  static Result<std::unique_ptr<ServeLoop>> create(const ServeOptions& opts);

  explicit ServeLoop(const ServeOptions& opts);

  void on_accept_ready();
  void adopt(Fd fd);
  void drive(Conn& conn);
  void settle(Conn& conn);
  void flush_tape(Conn& conn);
  void update_interest(Conn& conn);
  void begin_drain();
  void retire_pending();
  [[nodiscard]] std::uint64_t now_ms() const;

  ServeOptions opts_;
  EpollLoop loop_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::shared_ptr<const server::ServerProfile> profile_;
  std::shared_ptr<const server::Site> site_;
  std::unique_ptr<AcceptHandler> accept_handler_;
  std::map<int, std::unique_ptr<Conn>> conns_;  ///< keyed by fd
  /// Static response header blocks shared across this loop's connections —
  /// the per-shard cache (one ServeLoop per shard thread, so no locking).
  server::SharedBlockCache shared_blocks_;
  std::vector<int> retired_;  ///< fds to reap after the dispatch pass
  ServeStats stats_;
  bool draining_ = false;
  /// Drain deadline, on a timer wheel ticking in milliseconds.
  net::TimerWheel<int> deadlines_;
  std::uint64_t drain_deadline_ms_ = 0;
  std::uint64_t t0_ = 0;  ///< steady-clock epoch for now_ms()
};

}  // namespace h2r::netio
