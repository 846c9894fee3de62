// net::Transport over a real TCP socket.
//
// The lockstep and faulty transports shuttle bytes between two in-process
// endpoints; here one side of the conversation lives across a kernel socket.
// SocketTransport owns the (nonblocking) fd and exposes the remote peer as
// an internal wire endpoint: take_output() drains whatever the kernel has
// buffered, receive() queues toward the peer. The local engine
// (Http2Server or ClientConnection) plugs into the other seat, and
// round_once mirrors the lockstep round body — which means ExchangeDriver,
// the limits, the ledger accounting, and the trace round marks all carry
// over unchanged from PR 7.
//
// Parks mean "wait for socket readiness" instead of "skip N virtual
// rounds": a round where no octets moved and the connection is still open
// reports parkable=1, and the epoll loop unparks the driver when EPOLLIN /
// EPOLLOUT fires. Socket errors fold into the same terminal taxonomy as
// injected faults — a real ECONNRESET reaches on_transport_close as
// kUnavailable, exactly like a FaultyTransport disconnect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "net/transport.h"
#include "netio/socket.h"
#include "util/bytes.h"

namespace h2r::netio {

class SocketTransport final : public net::Transport {
 public:
  /// Takes ownership of a connected (or accepted), nonblocking socket.
  explicit SocketTransport(Fd fd, trace::Recorder* recorder = nullptr,
                           net::ExchangeLedger* ledger = nullptr)
      : Transport(recorder, ledger), fd_(std::move(fd)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "socket";
  }

  /// The endpoint seat standing in for the remote peer. A serving exchange
  /// runs ExchangeDriver(transport, transport.wire(), engine); a load
  /// client runs ExchangeDriver(transport, client, transport.wire()).
  [[nodiscard]] net::Endpoint& wire() noexcept { return wire_; }

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// True while unsent octets are queued toward the peer — the epoll loop
  /// arms EPOLLOUT exactly when this holds.
  [[nodiscard]] bool wants_write() const noexcept { return !out_.empty(); }
  /// Queued octets the kernel has not taken yet.
  [[nodiscard]] std::size_t unsent_bytes() const noexcept {
    return out_.size() - out_off_;
  }
  /// Octets the outbound backlog holds allocated, sent prefix included.
  [[nodiscard]] std::size_t outbound_capacity() const noexcept {
    return out_.capacity();
  }
  /// The peer half-closed its write side (read returned 0).
  [[nodiscard]] bool peer_eof() const noexcept { return eof_; }
  /// A socket error ended the connection; last_error() says which.
  [[nodiscard]] bool failed() const noexcept { return errno_ != 0; }
  [[nodiscard]] int last_errno() const noexcept { return errno_; }

  /// Prepends octets the owner already read off the socket (the listener's
  /// preface sniff) so the engine sees an unbroken stream.
  void push_inbound(std::span<const std::uint8_t> bytes) {
    sniffed_.insert(sniffed_.end(), bytes.begin(), bytes.end());
  }

  /// Closes the socket now (shutdown paths that cannot wait for the
  /// driver to finish).
  void close() { fd_.reset(); }

 protected:
  RoundOutcome round_once(net::Endpoint& client, net::Endpoint& server,
                          net::ExchangeResult& result) override;
  bool exchange_dead(net::ExchangeResult& result) override;

 private:
  /// The remote peer's seat: socket reads surface as take_output, receives
  /// queue toward the kernel.
  class WireEndpoint final : public net::Endpoint {
   public:
    explicit WireEndpoint(SocketTransport& t) : t_(t) {}
    [[nodiscard]] Bytes take_output() override { return t_.read_from_socket(); }
    void receive(std::span<const std::uint8_t> bytes) override {
      // The round body moves the producer's buffer instead; this copy waits
      // for the next round's flush.
      t_.queue_to_socket(Bytes(bytes.begin(), bytes.end()), *this);
    }
    void recycle(Bytes buffer) override { t_.pool_.release(std::move(buffer)); }
    [[nodiscard]] bool alive() const override {
      return t_.fd_.valid() && !t_.eof_ && t_.errno_ == 0;
    }

   private:
    SocketTransport& t_;
  };

  [[nodiscard]] Bytes read_from_socket();
  /// Queues @p bytes toward the peer. An empty backlog adopts a nonempty
  /// buffer as-is (no copy); otherwise its octets are appended to the
  /// backlog. Whatever buffer is left over goes back to @p producer's pool.
  void queue_to_socket(Bytes bytes, net::Endpoint& producer);
  /// Sends the backlog with send() until EAGAIN / drained / error. A fully
  /// drained backlog is recycled to @p owner, the round's local engine seat.
  /// Returns true when any octet left.
  bool flush_backlog(net::Endpoint& owner);

  Fd fd_;
  WireEndpoint wire_{*this};
  BufferPool pool_;
  Bytes sniffed_;       ///< owner-injected inbound prefix (preface sniff)
  /// Octets queued toward the peer; the first out_off_ of them are already
  /// in the kernel (short-write spill).
  Bytes out_;
  std::size_t out_off_ = 0;
  bool eof_ = false;
  int errno_ = 0;       ///< first fatal socket errno (0 = none)
  bool closed_reported_ = false;
};

}  // namespace h2r::netio
