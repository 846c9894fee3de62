#include "netio/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace h2r::netio {

void Fd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status errno_status(int err, std::string_view what) {
  const std::string msg =
      std::string(what) + ": " + errno_key(err) + " (" + std::strerror(err) +
      ")";
  switch (err) {
    case ECONNRESET:
    case EPIPE:
    case ECONNREFUSED:
    case ECONNABORTED:
    case ETIMEDOUT:
    case EHOSTUNREACH:
    case ENETUNREACH:
    case ENETDOWN:
    case ENETRESET:
    case ESHUTDOWN:
      return UnavailableError(msg);
    case EMFILE:
    case ENFILE:
    case ENOBUFS:
    case ENOMEM:
      return RefusedError(msg);
    default:
      return InternalError(msg);
  }
}

std::string errno_key(int err) {
  switch (err) {
    case ECONNRESET: return "ECONNRESET";
    case EPIPE: return "EPIPE";
    case ECONNREFUSED: return "ECONNREFUSED";
    case ECONNABORTED: return "ECONNABORTED";
    case ETIMEDOUT: return "ETIMEDOUT";
    case EHOSTUNREACH: return "EHOSTUNREACH";
    case ENETUNREACH: return "ENETUNREACH";
    case ENETDOWN: return "ENETDOWN";
    case ENETRESET: return "ENETRESET";
    case ESHUTDOWN: return "ESHUTDOWN";
    case EMFILE: return "EMFILE";
    case ENFILE: return "ENFILE";
    case ENOBUFS: return "ENOBUFS";
    case ENOMEM: return "ENOMEM";
    case EADDRINUSE: return "EADDRINUSE";
    case EACCES: return "EACCES";
    case EINVAL: return "EINVAL";
    case EBADF: return "EBADF";
    default: return "errno-" + std::to_string(err);
  }
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_status(errno, "fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_status(errno, "fcntl(F_SETFL)");
  }
  return OkStatus();
}

Result<Fd> listen_loopback(std::uint16_t port, int backlog,
                           bool reuse_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status(errno, "socket");
  const int one = 1;
  // SO_REUSEADDR so a restarted listener re-binds through lingering
  // TIME_WAIT entries from its previous incarnation.
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return errno_status(errno, "setsockopt(SO_REUSEADDR)");
  }
  if (reuse_port &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) <
          0) {
    return errno_status(errno, "setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return errno_status(errno, "bind");
  }
  if (::listen(fd.get(), backlog) < 0) return errno_status(errno, "listen");
  if (Status s = set_nonblocking(fd.get()); !s.ok()) return s;
  return fd;
}

Result<std::uint16_t> local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return errno_status(errno, "getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Result<Fd> connect_tcp(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status(errno, "socket");
  if (Status s = set_nonblocking(fd.get()); !s.ok()) return s;
  const int one = 1;
  // The load generator writes many small frames; without TCP_NODELAY Nagle
  // would serialize them against delayed ACKs and the latency histogram
  // would measure the kernel, not the server.
  if (::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) <
      0) {
    return errno_status(errno, "setsockopt(TCP_NODELAY)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InternalError("connect_tcp: bad IPv4 address \"" + host + "\"");
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    return errno_status(errno, "connect");
  }
  return fd;
}

int pending_socket_error(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return errno;
  return err;
}

}  // namespace h2r::netio
