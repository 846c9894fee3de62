#include "netio/serve.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <optional>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <utility>
#include <vector>

#include "h2/constants.h"
#include "net/readiness.h"
#include "net/transport.h"
#include "netio/socket_transport.h"
#include "server/profile.h"
#include "server/site.h"

namespace h2r::netio {

namespace {
// Serving exchanges are bounded by socket lifetime, not by virtual rounds:
// every epoll wake books at least one round, so the cap only needs to be
// far above any plausible number of wakes per connection.
constexpr net::ExchangeLimits kServeLimits{.max_rounds = 1 << 30,
                                           .max_bytes = 0};
/// Per-connection trace tape bound, in 32-byte binary records.
constexpr std::size_t kConnTapeRecords = 4096;
constexpr int kListenBacklog = 128;
}  // namespace

void ServeStats::merge(const ServeStats& other) {
  accepted += other.accepted;
  served_clean += other.served_clean;
  disconnected += other.disconnected;
  declined_h1 += other.declined_h1;
  accept_refused += other.accept_refused;
  drain_expired += other.drain_expired;
  rounds += other.rounds;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  trace_drops += other.trace_drops;
  header_cache_hits += other.header_cache_hits;
  header_cache_misses += other.header_cache_misses;
  for (const auto& [key, count] : other.errors) errors[key] += count;
}

std::string ServeStats::json() const {
  std::string out = "{";
  const auto field = [&out](std::string_view key, std::uint64_t v) {
    out += "\"";
    out += key;
    out += "\":" + std::to_string(v) + ",";
  };
  field("accepted", accepted);
  field("served_clean", served_clean);
  field("disconnected", disconnected);
  field("declined_h1", declined_h1);
  field("accept_refused", accept_refused);
  field("drain_expired", drain_expired);
  field("rounds", rounds);
  field("bytes_in", bytes_in);
  field("bytes_out", bytes_out);
  field("trace_drops", trace_drops);
  field("header_cache_hits", header_cache_hits);
  field("header_cache_misses", header_cache_misses);
  out += "\"errors\":{";
  bool first = true;
  for (const auto& [key, count] : errors) {
    if (!first) out += ",";
    first = false;
    out += "\"" + key + "\":" + std::to_string(count);
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------------- connection

struct ServeLoop::Conn final : IoHandler {
  Conn(ServeLoop& serve, Fd fd)
      : serve(serve),
        tape(kConnTapeRecords),
        transport(std::move(fd),
                  serve.opts_.recorder != nullptr ? &tape : nullptr) {}

  void on_ready(std::uint32_t events) override {
    (void)events;  // level-triggered: drive() discovers the work itself
    serve.drive(*this);
  }

  ServeLoop& serve;
  /// Per-connection wiretap buffer. Concurrent connections interleave on
  /// the reactor, but the annotator and metrics segment traces by
  /// kConnectionStart and assume each segment is contiguous — so every
  /// connection records onto its own bounded ring tape, replayed whole
  /// into the shared sink when the connection retires.
  trace::RingRecorder tape;
  SocketTransport transport;
  Bytes sniff;
  bool sniff_done = false;
  server::Http2Server::StartMode mode = server::Http2Server::StartMode::kTls;
  std::unique_ptr<server::Http2Server> engine;
  std::optional<net::EndpointRef<server::Http2Server>> engine_ref;
  std::optional<net::ExchangeDriver> driver;
  std::uint32_t interest = EPOLLIN;
  bool retired = false;
};

class ServeLoop::AcceptHandler final : public IoHandler {
 public:
  explicit AcceptHandler(ServeLoop& serve) : serve_(serve) {}
  void on_ready(std::uint32_t events) override {
    (void)events;
    serve_.on_accept_ready();
  }

 private:
  ServeLoop& serve_;
};

// ------------------------------------------------------------------ setup

ServeLoop::ServeLoop(const ServeOptions& opts) : opts_(opts) {
  t0_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ServeLoop::~ServeLoop() {
  for (auto& [fd, conn] : conns_) {
    loop_.remove(fd);
    flush_tape(*conn);
    conn->transport.close();
  }
  conns_.clear();
}

Result<std::unique_ptr<ServeLoop>> ServeLoop::create(
    const ServeOptions& opts) {
  server::ServerProfile profile;
  try {
    profile = server::profile_by_key(opts.profile_key);
  } catch (const std::out_of_range&) {
    return InvalidArgumentError("unknown profile key \"" + opts.profile_key +
                                "\"");
  }
  if (opts.hardened) {
    profile.mitigation = server::MitigationPolicy::hardened();
  }

  // make_unique can't reach the private ctor.
  std::unique_ptr<ServeLoop> serve(new ServeLoop(opts));
  if (!serve->loop_.status().ok()) return serve->loop_.status();
  serve->profile_ = std::make_shared<const server::ServerProfile>(
      std::move(profile));
  serve->site_ = std::make_shared<const server::Site>(
      server::Site::standard_testbed_site());

  auto listener =
      listen_loopback(opts.port, kListenBacklog, /*reuse_port=*/true);
  if (!listener.ok()) return listener.status();
  serve->listener_ = std::move(listener).value();
  auto port = local_port(serve->listener_.get());
  if (!port.ok()) return port.status();
  serve->port_ = port.value();

  serve->accept_handler_ = std::make_unique<AcceptHandler>(*serve);
  if (Status s = serve->loop_.add(serve->listener_.get(),
                                  serve->accept_handler_.get(), EPOLLIN);
      !s.ok()) {
    return s;
  }
  return serve;
}

std::uint64_t ServeLoop::now_ms() const {
  return static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) -
         t0_;
}

// ----------------------------------------------------------------- accept

void ServeLoop::on_accept_ready() {
  while (true) {
    Fd fd(::accept4(listener_.get(), nullptr, nullptr,
                    SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE / ENFILE / ENOBUFS: the accept-overflow class. Count it in
      // the taxonomy and back off until the next readiness wake.
      ++stats_.accept_refused;
      ++stats_.errors[errno_key(errno)];
      return;
    }
    ++stats_.accepted;
    if (draining_ || conns_.size() >= opts_.max_connections) {
      ++stats_.accept_refused;
      ++stats_.errors[draining_ ? "shutting-down" : "overloaded"];
      continue;  // fd closes on scope exit
    }
    adopt(std::move(fd));
  }
}

void ServeLoop::adopt(Fd fd) {
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int raw = fd.get();
  auto conn = std::make_unique<Conn>(*this, std::move(fd));
  if (Status s = loop_.add(raw, conn.get(), EPOLLIN); !s.ok()) {
    ++stats_.accept_refused;
    ++stats_.errors["epoll-add"];
    return;
  }
  conns_.emplace(raw, std::move(conn));
}

// ------------------------------------------------------------------ drive

void ServeLoop::drive(Conn& conn) {
  if (conn.retired) return;

  if (!conn.sniff_done) {
    // First bytes decide the engine's start mode: a byte-exact client
    // preface prefix that completes is prior knowledge (kTls); the first
    // divergent octet means HTTP/1.1 text and the §3.2 upgrade dance
    // (kH2c). Read octet-wise-cheap: one recv per wake is plenty here.
    std::uint8_t buf[64];
    while (conn.sniff.size() < h2::kClientPreface.size()) {
      const ssize_t n = ::recv(conn.transport.fd(), buf, sizeof(buf), 0);
      if (n > 0) {
        conn.sniff.insert(conn.sniff.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or a hard error before a single parseable byte sequence.
      if (n < 0) ++stats_.errors[errno_key(errno)];
      ++stats_.disconnected;
      loop_.remove(conn.transport.fd());
      conn.retired = true;
      retired_.push_back(conn.transport.fd());
      return;
    }
    const std::size_t n =
        std::min(conn.sniff.size(), h2::kClientPreface.size());
    const bool prefix_matches =
        std::equal(conn.sniff.begin(), conn.sniff.begin() + n,
                   h2::kClientPreface.begin());
    if (prefix_matches && n < h2::kClientPreface.size()) return;  // need more
    conn.mode = prefix_matches ? server::Http2Server::StartMode::kTls
                               : server::Http2Server::StartMode::kH2c;
    trace::Recorder* sink = opts_.recorder != nullptr ? &conn.tape : nullptr;
    if (sink != nullptr) {
      // The peer is a real remote client, so nobody in-process records its
      // frames — the engine has to put the c2s direction on the tape (and
      // open the connection segment) itself.
      sink->begin_connection(
          conn.mode == server::Http2Server::StartMode::kTls
              ? "serve:prior-knowledge"
              : "serve:h2c-upgrade");
    }
    conn.engine = std::make_unique<server::Http2Server>(profile_, site_,
                                                        conn.mode, sink);
    conn.engine->set_shared_block_cache(&shared_blocks_);
    conn.engine->record_received_frames(true);
    conn.engine_ref.emplace(*conn.engine);
    conn.transport.push_inbound(conn.sniff);
    conn.sniff.clear();
    conn.driver.emplace(conn.transport, conn.transport.wire(),
                        *conn.engine_ref, kServeLimits);
    conn.sniff_done = true;
    if (draining_) conn.engine->shutdown();  // raced the drain start
  }

  if (conn.driver->state() == net::ExchangeDriver::State::kParked) {
    conn.driver->unpark();
  }
  if (conn.driver->pump() == net::ExchangeDriver::State::kDone) {
    settle(conn);
    loop_.remove(conn.transport.fd());
    conn.retired = true;
    retired_.push_back(conn.transport.fd());
    return;
  }
  update_interest(conn);
}

void ServeLoop::update_interest(Conn& conn) {
  const std::uint32_t want =
      EPOLLIN | (conn.transport.wants_write() ? EPOLLOUT : 0u);
  if (want == conn.interest) return;
  if (loop_.modify(conn.transport.fd(), want).ok()) conn.interest = want;
}

void ServeLoop::settle(Conn& conn) {
  const net::ExchangeResult& r = conn.driver->result();
  stats_.rounds += static_cast<std::uint64_t>(r.rounds);
  stats_.bytes_in += r.bytes_c2s;
  stats_.bytes_out += r.bytes_s2c;
  switch (r.outcome) {
    case net::ExchangeOutcome::kQuiescent:
      if (conn.mode == server::Http2Server::StartMode::kH2c &&
          !conn.engine->upgraded()) {
        ++stats_.declined_h1;
      } else {
        ++stats_.served_clean;
      }
      break;
    case net::ExchangeOutcome::kDisconnected:
      if (conn.transport.failed()) {
        ++stats_.disconnected;
        ++stats_.errors[errno_key(conn.transport.last_errno())];
      } else if (conn.engine->client_goaway() &&
                 conn.engine->active_stream_count() == 0) {
        // Peer said goodbye (GOAWAY), finished its streams, then closed:
        // that is a clean serve, not a connection loss.
        ++stats_.served_clean;
      } else {
        ++stats_.disconnected;
        ++stats_.errors["EOF"];
      }
      break;
    case net::ExchangeOutcome::kRoundCap:
    case net::ExchangeOutcome::kByteCap:
      ++stats_.disconnected;
      ++stats_.errors["exchange-cap"];
      break;
  }
}

void ServeLoop::flush_tape(Conn& conn) {
  if (opts_.recorder == nullptr) return;
  // The sink re-stamps sequence numbers, so flush order — whole connection
  // segments, in retirement order — is the exported trace's total order.
  // Timestamps are preserved as recorded. A tape that wrapped evicted its
  // oldest records first — including the kConnectionStart marker — so the
  // segment boundary is re-established before the survivors replay.
  if (conn.tape.drops() > 0) {
    opts_.recorder->begin_connection(
        conn.mode == server::Http2Server::StartMode::kTls
            ? "serve:prior-knowledge"
            : "serve:h2c-upgrade");
  }
  conn.tape.replay_into(*opts_.recorder);
  stats_.trace_drops += conn.tape.drops();
  conn.tape.clear();
}

void ServeLoop::retire_pending() {
  for (const int fd : retired_) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    flush_tape(*it->second);
    it->second->transport.close();
    conns_.erase(it);
  }
  retired_.clear();
}

// --------------------------------------------------------------- shutdown

void ServeLoop::begin_drain() {
  draining_ = true;
  drain_deadline_ms_ =
      now_ms() + static_cast<std::uint64_t>(
                     opts_.drain_ms < 0 ? 0 : opts_.drain_ms);
  deadlines_.park(drain_deadline_ms_, 0);
  loop_.remove(listener_.get());
  listener_.reset();
  // GOAWAY + drain every live engine; pre-handshake sockets just close.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    if (conn.engine != nullptr) {
      conn.engine->shutdown();
      drive(conn);
    } else {
      ++stats_.errors["closed-at-shutdown"];
      loop_.remove(fd);
      conn.retired = true;
      retired_.push_back(fd);
    }
  }
  retire_pending();
}

Status ServeLoop::run() {
  while (true) {
    int timeout = -1;
    if (draining_) {
      if (conns_.empty()) break;
      const std::uint64_t now = now_ms();
      if (!deadlines_.pop_due(now).empty() || now >= drain_deadline_ms_) {
        // Drain budget spent: whoever is still open gets force-closed.
        for (auto& [fd, conn] : conns_) {
          ++stats_.drain_expired;
          loop_.remove(fd);
          flush_tape(*conn);
          conn->transport.close();
        }
        conns_.clear();
        break;
      }
      timeout = static_cast<int>(drain_deadline_ms_ - now);
    }
    auto polled = loop_.poll(timeout);
    if (!polled.ok()) return polled.status();
    if (loop_.shutdown_requested() && !draining_) begin_drain();
    retire_pending();
    if (draining_ && conns_.empty()) break;
  }
  stats_.header_cache_hits += shared_blocks_.hits;
  stats_.header_cache_misses += shared_blocks_.misses;
  return OkStatus();
}

}  // namespace h2r::netio
