// POSIX socket plumbing for the real-socket serving mode.
//
// Everything below src/netio speaks to actual kernel sockets — the first
// code in the repository that does. The policy decisions live here once:
// every socket is nonblocking (the epoll loop must never block in read or
// write), every listener binds loopback by default (this is a measurement
// harness, not an internet-facing daemon), and every errno that reaches a
// caller has already been folded into the PR-4 terminal-state taxonomy, so
// a real ECONNRESET classifies exactly like an injected disconnect.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace h2r::netio {

/// RAII file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  /// Closes the held descriptor (if any) and adopts @p fd.
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Maps an errno from socket I/O into the terminal-state taxonomy:
/// connection-loss errnos (ECONNRESET, EPIPE, ECONNREFUSED, timeouts,
/// unreachable networks) become kUnavailable — the StatusCode the fault
/// transport's disconnects carry, so ClientConnection::on_transport_close /
/// Http2Server::on_transport_close classify a real peer dying exactly like
/// an injected one. Resource exhaustion (EMFILE, ENFILE, ENOBUFS — the
/// accept-overflow class) becomes kRefused. Anything else is kInternal.
[[nodiscard]] Status errno_status(int err, std::string_view what);

/// Stable taxonomy key for an errno: "ECONNRESET", "EPIPE", ... or
/// "errno-N" for errnos without a reserved name. Keys count connection
/// outcomes in ServeStats / LoadReport error maps.
[[nodiscard]] std::string errno_key(int err);

/// Flips O_NONBLOCK on.
[[nodiscard]] Status set_nonblocking(int fd);

/// Binds a nonblocking TCP listener on 127.0.0.1:@p port (0 = kernel picks
/// an ephemeral port; read it back with local_port) and listens. With
/// @p reuse_port, sets SO_REUSEPORT before binding so several listeners —
/// one per serve shard — share the port and the kernel load-balances
/// accepts across them. Every failure, SO_REUSEPORT included, is classified
/// by errno_status.
[[nodiscard]] Result<Fd> listen_loopback(std::uint16_t port, int backlog,
                                         bool reuse_port = false);

/// The port a bound socket actually landed on.
[[nodiscard]] Result<std::uint16_t> local_port(int fd);

/// Begins a nonblocking TCP connect to @p host:@p port (IPv4 dotted quad).
/// Typically returns with the connect still in progress: wait for
/// writability, then check pending_socket_error.
[[nodiscard]] Result<Fd> connect_tcp(const std::string& host,
                                     std::uint16_t port);

/// SO_ERROR readout (0 = connected) once a nonblocking connect signals
/// writability.
[[nodiscard]] int pending_socket_error(int fd);

}  // namespace h2r::netio
