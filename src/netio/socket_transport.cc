#include "netio/socket_transport.h"

#include <cerrno>
#include <sys/socket.h>

namespace h2r::netio {

namespace {
// Per-recv buffer and per-round intake cap. The cap bounds how much one
// round materializes in memory; level-triggered epoll (and the pump loop
// itself — a progressed round is immediately followed by another) picks up
// whatever the kernel still holds.
constexpr std::size_t kReadChunk = 16 * 1024;
constexpr std::size_t kMaxPerRound = 256 * 1024;
}  // namespace

Bytes SocketTransport::read_from_socket() {
  Bytes out = pool_.acquire();
  if (!sniffed_.empty()) {
    // Owner-sniffed prefix (the listener's preface peek) re-enters the
    // stream ahead of anything still in the kernel.
    out.insert(out.end(), sniffed_.begin(), sniffed_.end());
    sniffed_.clear();
  }
  if (eof_ || errno_ != 0 || !fd_.valid()) return out;
  while (out.size() < kMaxPerRound) {
    const std::size_t base = out.size();
    out.resize(base + kReadChunk);
    const ssize_t n = ::recv(fd_.get(), out.data() + base, kReadChunk, 0);
    if (n > 0) {
      out.resize(base + static_cast<std::size_t>(n));
      // A short read usually means the kernel is drained; stop here — the
      // pump re-reads next round, and epoll refires if more arrived.
      if (static_cast<std::size_t>(n) < kReadChunk) break;
      continue;
    }
    out.resize(base);
    if (n == 0) {
      eof_ = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    errno_ = errno;
    break;
  }
  return out;
}

void SocketTransport::queue_to_socket(Bytes bytes, net::Endpoint& producer) {
  if (!bytes.empty()) {
    if (out_.empty()) {
      // The kernel took the last round whole: adopt the round buffer as-is.
      out_.swap(bytes);
    } else {
      // Backpressure: drop the octets the kernel already took before
      // appending, so the backlog holds unsent data only, not everything
      // sent since it last emptied. Compacting only once the sent prefix is
      // at least as long as the unsent tail keeps the copying linear in the
      // octets sent and the backlog under twice the unsent octets plus the
      // round being appended.
      if (out_off_ >= out_.size() - out_off_) {
        out_.erase(out_.begin(),
                   out_.begin() + static_cast<std::ptrdiff_t>(out_off_));
        out_off_ = 0;
      }
      out_.insert(out_.end(), bytes.begin(), bytes.end());
    }
  }
  // An empty round buffer (or the one whose octets were just appended) goes
  // straight back to the producer, so an idle connection keeps no spare.
  producer.recycle(std::move(bytes));
}

bool SocketTransport::flush_backlog(net::Endpoint& owner) {
  bool moved = false;
  // One retry on EINTR: a signal mid-send used to surface as a would-block
  // round, costing a park + EPOLLOUT wake under signal-heavy load. A second
  // interruption defers to the next round instead of spinning.
  int eintr_budget = 1;
  while (!out_.empty() && errno_ == 0 && fd_.valid()) {
    // MSG_NOSIGNAL: a peer that already reset must surface as EPIPE, not
    // kill the process with SIGPIPE.
    const ssize_t n = ::send(fd_.get(), out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      moved = true;
      out_off_ += static_cast<std::size_t>(n);
      if (out_off_ < out_.size()) continue;  // short write: spill stays
      out_off_ = 0;
      // Hand the drained backlog back to a pool, so the engine's next
      // take_output round reuses the capacity.
      owner.recycle(std::move(out_));
      out_ = Bytes();
      continue;
    }
    if (n == 0) break;  // defensive: a nonempty send should not return 0
    if (errno == EINTR) {
      if (eintr_budget-- > 0) continue;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    errno_ = errno;
    break;
  }
  return moved;
}

bool SocketTransport::exchange_dead(net::ExchangeResult& result) {
  if (errno_ == 0 && fd_.valid()) return false;
  result.outcome = net::ExchangeOutcome::kDisconnected;
  return true;
}

net::Transport::RoundOutcome SocketTransport::round_once(
    net::Endpoint& client, net::Endpoint& server,
    net::ExchangeResult& result) {
  RoundOutcome out;
  // One of the two seats is our wire endpoint; the other is the local
  // engine whose terminal state a dying socket must reach.
  net::Endpoint& local =
      &client == static_cast<net::Endpoint*>(&wire_) ? server : client;

  // The lockstep round body, with one twist: when the destination seat is
  // the wire, the producer's buffer MOVES into the empty backlog instead of
  // being copied — the flush below recycles it to the producer once the
  // kernel has taken it. Byte order and round structure stay bit-compatible
  // with the in-process transports as far as the endpoints can observe.
  Bytes c2s = client.take_output();
  result.bytes_c2s += c2s.size();
  out.progressed = !c2s.empty();
  if (&server == static_cast<net::Endpoint*>(&wire_)) {
    queue_to_socket(std::move(c2s), client);
  } else {
    if (!c2s.empty()) server.receive(c2s);
    client.recycle(std::move(c2s));
  }
  Bytes s2c = server.take_output();
  result.bytes_s2c += s2c.size();
  out.progressed |= !s2c.empty();
  if (&client == static_cast<net::Endpoint*>(&wire_)) {
    queue_to_socket(std::move(s2c), server);
  } else {
    if (!s2c.empty()) client.receive(s2c);
    server.recycle(std::move(s2c));
  }

  // One flush per round: whatever either seat produced this round rides one
  // send. An EPOLLOUT wake with nothing new to say lands here too and
  // retries the backlog.
  out.progressed |= flush_backlog(local);

  if (errno_ != 0) {
    result.outcome = net::ExchangeOutcome::kDisconnected;
    if (!closed_reported_) {
      closed_reported_ = true;
      local.on_transport_close(errno_status(errno_, "socket"));
    }
    out.terminal = true;
    return out;
  }

  const bool local_done = !local.alive();
  const bool flushed = !wants_write();

  if (local_done && flushed) {
    // The engine closed cleanly and every octet it produced is in the
    // kernel: quiescent. (If this round still progressed, the driver loops
    // and lands here again with progressed=false.)
    return out;
  }
  if (eof_ && !local_done && !out.progressed) {
    // Peer hung up while the local endpoint still wanted the connection —
    // a real disconnect, classified exactly like an injected one. Only
    // after a quiet round, so the engine digests everything that arrived.
    result.outcome = net::ExchangeOutcome::kDisconnected;
    if (!closed_reported_) {
      closed_reported_ = true;
      local.on_transport_close(
          UnavailableError("socket: peer closed connection"));
    }
    out.terminal = true;
    return out;
  }
  // Still open with nothing to do right now: park until epoll reports
  // readiness. One "round" of sleep — wall-clock parks have no virtual
  // duration.
  if (!out.progressed) out.parkable = 1;
  return out;
}

}  // namespace h2r::netio
