#include "capture.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "bench.h"
#include "core/client.h"
#include "h2/frame_codec.h"
#include "hpack/decoder.h"
#include "hpack/encoder.h"
#include "net/transport.h"
#include "netio/socket.h"
#include "netio/socket_transport.h"
#include "spans.h"
#include "stats.h"
#include "trace/recorder.h"

namespace perfbench {

using namespace h2r;

namespace {

/// Keeps replay results observable so no replay loop is optimized away.
volatile std::uint64_t g_sink = 0;

constexpr net::ExchangeLimits kUnbounded{.max_rounds = 1 << 30,
                                         .max_bytes = 0};

/// Forwards to @p inner and logs every non-empty output it produces.
class Tap final : public net::Endpoint {
 public:
  Tap(net::Endpoint& inner, bool c2s,
      std::vector<std::pair<bool, Bytes>>& log)
      : inner_(inner), c2s_(c2s), log_(log) {}

  Bytes take_output() override {
    Bytes out = inner_.take_output();
    if (!out.empty()) log_.emplace_back(c2s_, out);
    return out;
  }
  void receive(std::span<const std::uint8_t> bytes) override {
    inner_.receive(bytes);
  }
  void recycle(Bytes buffer) override { inner_.recycle(std::move(buffer)); }
  bool alive() const override { return inner_.alive(); }
  void on_transport_close(const Status& status) override {
    inner_.on_transport_close(status);
  }

 private:
  net::Endpoint& inner_;
  bool c2s_;
  std::vector<std::pair<bool, Bytes>>& log_;
};

/// Collects complete header blocks (HEADERS / PUSH_PROMISE plus any
/// CONTINUATIONs) as frames go by.
class BlockCollector {
 public:
  /// Returns true when @p v completed a block, left in block().
  bool add(const h2::FrameView& v) {
    const auto type = v.type();
    if (type == h2::FrameType::kHeaders ||
        type == h2::FrameType::kPushPromise) {
      block_.assign(v.body.begin(), v.body.end());
    } else if (type == h2::FrameType::kContinuation) {
      block_.insert(block_.end(), v.body.begin(), v.body.end());
    } else {
      return false;
    }
    return v.has_flag(h2::flags::kEndHeaders);
  }
  [[nodiscard]] const Bytes& block() const noexcept { return block_; }

 private:
  Bytes block_;
};

/// Runs @p pass (which returns the units it processed) @p reps times, each
/// inside a span named @p name; the cost is the median pass time per unit.
template <typename Pass>
StageCost time_stage(const char* name, int reps, Pass pass) {
  std::vector<double> totals;
  std::uint64_t units = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t t0 = now_ns();
    {
      const Scope span(name);
      units = pass();
    }
    totals.push_back(static_cast<double>(now_ns() - t0));
  }
  return {units == 0 ? 0.0 : median(totals) / static_cast<double>(units),
          units};
}

std::span<const std::uint8_t> skip_preface(const Piece& first) {
  std::span<const std::uint8_t> in(first.c2s);
  return in.subspan(std::min(in.size(), h2::kClientPreface.size()));
}

}  // namespace

Capture capture_connection(const Endpoints& ends, int requests, int window) {
  server::Http2Server server(ends.profile, ends.site);
  core::ClientConnection client;
  net::EndpointRef<core::ClientConnection> client_ref(client);
  net::EndpointRef<server::Http2Server> server_ref(server);
  std::vector<std::pair<bool, Bytes>> log;
  Tap c2s(client_ref, true, log);
  Tap s2c(server_ref, false, log);
  net::LockstepTransport transport;

  int issued = 0;
  std::vector<std::uint32_t> ids;
  while (issued < requests) {
    ids.clear();
    for (int i = 0; i < window && issued < requests; ++i, ++issued) {
      ids.push_back(client.send_request("/"));
    }
    if (transport.run_endpoints(c2s, s2c, kUnbounded).outcome !=
        net::ExchangeOutcome::kQuiescent) {
      return {};
    }
    for (const std::uint32_t id : ids) {
      if (!client.stream_complete(id)) return {};
    }
  }
  client.close();
  (void)transport.run_endpoints(c2s, s2c, kUnbounded);

  Capture cap;
  for (auto& [is_c2s, bytes] : log) {
    if (is_c2s || cap.pieces.empty()) cap.pieces.emplace_back();
    Bytes& dst = is_c2s ? cap.pieces.back().c2s : cap.pieces.back().s2c;
    dst.insert(dst.end(), bytes.begin(), bytes.end());
  }
  return cap;
}

Analysis analyze(Capture& capture) {
  Analysis a;
  h2::FrameParser c2s_parser;
  h2::FrameParser s2c_parser;
  hpack::Decoder response_decoder;
  BlockCollector c2s_blocks;
  BlockCollector s2c_blocks;
  capture.requests = 0;
  for (std::size_t i = 0; i < capture.pieces.size(); ++i) {
    Piece& piece = capture.pieces[i];
    c2s_parser.feed(i == 0 ? skip_preface(piece)
                           : std::span<const std::uint8_t>(piece.c2s));
    piece.requests = 0;
    while (auto next = c2s_parser.next_view()) {
      if (!next->ok()) {
        a.error = "c2s parse: " + next->status().message();
        return a;
      }
      const h2::FrameView& v = next->value();
      a.c2s_frames.push_back(h2::materialize(v));
      a.c2s_lengths.push_back(9 + v.payload_wire_octets);
      if (v.type() == h2::FrameType::kHeaders) ++piece.requests;
      if (c2s_blocks.add(v)) a.c2s_blocks.push_back(c2s_blocks.block());
    }
    capture.requests += piece.requests;
    s2c_parser.feed(piece.s2c);
    while (auto next = s2c_parser.next_view()) {
      if (!next->ok()) {
        a.error = "s2c parse: " + next->status().message();
        return a;
      }
      const h2::FrameView& v = next->value();
      a.s2c_frames.push_back(h2::materialize(v));
      a.s2c_lengths.push_back(9 + v.payload_wire_octets);
      if (v.type() == h2::FrameType::kPushPromise) ++a.pushes;
      if (s2c_blocks.add(v)) {
        auto list = response_decoder.decode(s2c_blocks.block());
        if (!list.ok()) {
          a.error = "s2c hpack: " + list.status().message();
          return a;
        }
        a.s2c_lists.push_back(std::move(list).value());
      }
    }
  }
  return a;
}

StageCost replay_parse(const std::vector<const Capture*>& caps, int reps) {
  return time_stage("h2.parse", reps, [&] {
    std::uint64_t frames = 0;
    for (const Capture* cap : caps) {
      h2::FrameParser c2s;
      h2::FrameParser s2c;
      for (std::size_t i = 0; i < cap->pieces.size(); ++i) {
        const Piece& piece = cap->pieces[i];
        c2s.feed(i == 0 ? skip_preface(piece)
                        : std::span<const std::uint8_t>(piece.c2s));
        while (auto v = c2s.next_view()) frames += v->ok() ? 1 : 0;
        s2c.feed(piece.s2c);
        while (auto v = s2c.next_view()) frames += v->ok() ? 1 : 0;
      }
    }
    return frames;
  });
}

StageCost replay_decode(const std::vector<const Analysis*>& an, int reps) {
  return time_stage("hpack.decode", reps, [&] {
    std::uint64_t blocks = 0;
    for (const Analysis* a : an) {
      hpack::Decoder decoder;
      for (const Bytes& block : a->c2s_blocks) {
        auto list = decoder.decode(block);
        if (list.ok()) g_sink = g_sink + list->size();
        ++blocks;
      }
    }
    return blocks;
  });
}

StageCost replay_encode(const std::vector<const Analysis*>& an,
                        const std::vector<hpack::IndexingPolicy>& policies,
                        int reps) {
  return time_stage("hpack.encode", reps, [&] {
    std::uint64_t blocks = 0;
    for (std::size_t i = 0; i < an.size(); ++i) {
      hpack::Encoder encoder({.policy = policies[i]});
      for (const hpack::HeaderList& list : an[i]->s2c_lists) {
        g_sink = g_sink + encoder.encode(list).size();
        ++blocks;
      }
    }
    return blocks;
  });
}

StageCost replay_serialize(const std::vector<const Analysis*>& an, int reps) {
  return time_stage("h2.serialize", reps, [&] {
    std::uint64_t frames = 0;
    for (const Analysis* a : an) {
      ByteWriter out;
      for (const h2::Frame& frame : a->s2c_frames) {
        g_sink = g_sink + h2::serialize_frame_into(out, frame);
        ++frames;
      }
    }
    return frames;
  });
}

StageCost replay_record(const std::vector<const Analysis*>& an, int reps) {
  return time_stage("trace.record", reps, [&] {
    trace::RingRecorder ring(65536);
    for (const Analysis* a : an) {
      for (std::size_t i = 0; i < a->c2s_frames.size(); ++i) {
        ring.record_frame(trace::Direction::kClientToServer,
                          a->c2s_frames[i], a->c2s_lengths[i]);
      }
      for (std::size_t i = 0; i < a->s2c_frames.size(); ++i) {
        ring.record_frame(trace::Direction::kServerToClient,
                          a->s2c_frames[i], a->s2c_lengths[i]);
      }
    }
    return ring.events_recorded();
  });
}

EngineCost replay_engine(const std::vector<const Capture*>& caps,
                         const Endpoints& ends, int reps) {
  std::vector<double> all, first, last, allocs, retained;
  double requests = 0;
  for (int rep = 0; rep < reps; ++rep) {
    double t_all = 0, t_first = 0, t_last = 0;
    double n_first = 0, n_last = 0;
    double held = 0;
    requests = 0;
    server::SharedBlockCache shared;  // one per shard, as the serving loop
    const std::uint64_t allocs0 = heap_allocations();
    for (const Capture* cap : caps) {
      const std::int64_t live0 = live_heap_blocks();
      std::uint32_t span = spans().begin("server.engine");
      std::int64_t t0 = now_ns();
      server::Http2Server engine(ends.profile, ends.site);
      engine.set_shared_block_cache(&shared);
      double setup = static_cast<double>(now_ns() - t0);
      spans().end(span);
      int index = 0;
      for (const Piece& piece : cap->pieces) {
        span = spans().begin("server.engine");
        t0 = now_ns();
        engine.receive(piece.c2s);
        Bytes out = engine.take_output();
        const auto d = static_cast<double>(now_ns() - t0) + setup;
        spans().end(span);
        setup = 0;  // construction is charged to the first piece
        g_sink = g_sink + out.size();
        engine.recycle(std::move(out));
        t_all += d;
        if (index < 1000) {
          t_first += d;
          n_first += piece.requests;
        }
        if (index >= cap->requests - 1000) {
          t_last += d;
          n_last += piece.requests;
        }
        index += piece.requests;
      }
      held += static_cast<double>(live_heap_blocks() - live0);
      requests += cap->requests;
    }
    allocs.push_back(static_cast<double>(heap_allocations() - allocs0));
    all.push_back(t_all);
    first.push_back(n_first > 0 ? t_first / n_first : 0);
    last.push_back(n_last > 0 ? t_last / n_last : 0);
    retained.push_back(held);
  }
  if (requests <= 0) return {};
  return {median(all) / requests / 1e3, median(first) / 1e3,
          median(last) / 1e3, median(allocs) / requests,
          median(retained) / requests};
}

namespace {

/// Connects a client socket to @p listener; the accepted side is left
/// pending for the replay to accept inside its span.
bool connect_pending(int listener, netio::Fd& client) {
  auto port = netio::local_port(listener);
  if (!port.ok()) return false;
  auto conn = netio::connect_tcp("127.0.0.1", port.value());
  if (!conn.ok()) return false;
  pollfd p{conn.value().get(), POLLOUT, 0};
  if (::poll(&p, 1, 2000) != 1) return false;
  client = std::move(conn).value();
  return true;
}

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes = bytes.subspan(static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, 2000) != 1) return false;
    } else {
      return false;
    }
  }
  return true;
}

/// The serving loop's per-connection stack, built on an accepted socket.
struct ServedConnection {
  ServedConnection(netio::Fd fd, const Endpoints& ends,
                   server::SharedBlockCache& shared)
      : transport(std::move(fd), &tape),
        engine(ends.profile, ends.site, server::Http2Server::StartMode::kTls,
               &tape),
        engine_ref(engine),
        driver(transport, transport.wire(), engine_ref, kUnbounded) {
    engine.set_shared_block_cache(&shared);
    engine.record_received_frames(true);
  }

  trace::RingRecorder tape{4096};
  netio::SocketTransport transport;
  server::Http2Server engine;
  net::EndpointRef<server::Http2Server> engine_ref;
  net::ExchangeDriver driver;
};

}  // namespace

double replay_netio(const std::vector<const Capture*>& caps,
                    const Endpoints& ends, int reps) {
  auto listener = netio::listen_loopback(0, 16);
  if (!listener.ok()) return -1;
  const int lfd = listener.value().get();
  std::vector<double> totals;
  double requests = 0;
  std::vector<std::uint8_t> buf(1 << 16);
  for (int rep = 0; rep < reps; ++rep) {
    double t_server = 0;
    requests = 0;
    server::SharedBlockCache shared;
    trace::RingRecorder sink(0);  // the shard tape connection tapes flush to
    for (const Capture* cap : caps) {
      netio::Fd peer;
      if (!connect_pending(lfd, peer)) return -1;
      // Accept and build the connection's stack, as the serving loop does.
      std::uint32_t span = spans().begin("netio.accept");
      std::int64_t t0 = now_ns();
      const int fd = ::accept4(lfd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return -1;
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<ServedConnection>(netio::Fd(fd), ends,
                                                     shared);
      conn->tape.begin_connection("serve:prior-knowledge");
      t_server += static_cast<double>(now_ns() - t0);
      spans().end(span);

      std::size_t expected = 0;
      std::size_t got = 0;
      Bytes stream;  // the s2c octets the capture says come next
      for (const Piece& piece : cap->pieces) {
        if (!write_all(peer.get(), piece.c2s)) return -1;
        stream.insert(stream.end(), piece.s2c.begin(), piece.s2c.end());
        expected += piece.s2c.size();
        const std::int64_t deadline = now_ns() + 2'000'000'000;
        do {
          span = spans().begin("netio.drive");
          t0 = now_ns();
          if (conn->driver.state() == net::ExchangeDriver::State::kParked) {
            conn->driver.unpark();
          }
          const auto state = conn->driver.pump();
          t_server += static_cast<double>(now_ns() - t0);
          spans().end(span);
          if (state == net::ExchangeDriver::State::kDone) return -1;
          const ssize_t n = ::recv(peer.get(), buf.data(), buf.size(), 0);
          if (n > 0) {
            const auto len = static_cast<std::size_t>(n);
            if (got + len > expected ||
                !std::equal(buf.begin(), buf.begin() + n,
                            stream.begin() + static_cast<std::ptrdiff_t>(got))) {
              return -1;
            }
            got += len;
          } else if (got < expected) {
            if (now_ns() > deadline) return -1;
            pollfd p{peer.get(), POLLIN, 0};
            (void)::poll(&p, 1, 1);
          }
        } while (got < expected);
      }
      // The client hangs up; the server sees EOF, flushes the connection's
      // tape into the shard tape and closes.
      peer.reset();
      span = spans().begin("netio.close");
      t0 = now_ns();
      while (conn->driver.state() != net::ExchangeDriver::State::kDone) {
        if (conn->driver.state() == net::ExchangeDriver::State::kParked) {
          conn->driver.unpark();
        }
        if (conn->driver.pump() != net::ExchangeDriver::State::kDone &&
            now_ns() - t0 > 2'000'000'000) {
          return -1;
        }
      }
      conn->tape.replay_into(sink);
      conn.reset();
      t_server += static_cast<double>(now_ns() - t0);
      spans().end(span);
      requests += cap->requests;
    }
    totals.push_back(t_server);
  }
  return requests > 0 ? median(totals) / requests / 1e3 : -1;
}

}  // namespace perfbench
