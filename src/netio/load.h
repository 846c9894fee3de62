// The in-repo load generator (h2load-mini's engine) and a synchronous
// single-connection socket client for tests.
//
// run_load multiplexes N real TCP connections on one epoll reactor, each a
// ClientConnection + SocketTransport + ExchangeDriver triple — the same
// stack the scan runs in-process, pointed at a real listener. Every
// connection keeps `streams` GETs in flight (seawreck-style multiplexing),
// refills as responses complete, and closes with GOAWAY once its share of
// the request budget is served. Clients run in Keep::kCompletions, so a
// connection holds its in-flight requests and per-stream records, never the
// responses themselves. The report carries RPS, a per-request
// latency distribution, and the error taxonomy (connect / transport /
// protocol, keyed by errno name where one exists).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/client.h"
#include "net/transport.h"
#include "netio/socket_transport.h"
#include "util/stats.h"
#include "util/status.h"

namespace h2r::netio {

struct LoadOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Concurrent TCP connections (--con).
  int connections = 4;
  /// Total requests across the whole run (--req), distributed round-robin
  /// over the connections.
  int requests = 100;
  /// Concurrent streams kept in flight per connection (--streams).
  int streams = 1;
  std::string path = "/";
  int connect_timeout_ms = 5000;
  /// Whole-run safety deadline: outstanding work past this is counted
  /// failed and the loop exits (a wedged server must not hang CI).
  int run_timeout_ms = 60000;
  /// Generator threads (--threads). Connections and the request budget
  /// split across one single-threaded runner per thread; the per-thread
  /// reports merge into one (see LoadReport::merge). Capped at
  /// `connections` — an idle runner would just skew wall_ms.
  int threads = 1;
};

struct LoadReport {
  std::uint64_t completed = 0;  ///< requests with END_STREAM (or RST) seen
  std::uint64_t failed = 0;     ///< issued or budgeted but never completed
  std::uint64_t rst_streams = 0;
  std::uint64_t connect_errors = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t clean_closes = 0;  ///< connections that finished via GOAWAY
  double wall_ms = 0.0;
  double rps = 0.0;
  SampleSet latency_ms;  ///< request submit → END_STREAM, per request
  std::map<std::string, std::uint64_t> errors;  ///< taxonomy key → count

  [[nodiscard]] std::uint64_t total_errors() const noexcept {
    return connect_errors + transport_errors + protocol_errors;
  }

  /// Folds a concurrent runner's report into this one: counters and the
  /// error map sum, latency samples pool (union — exact quantiles),
  /// wall_ms takes the max (the runners overlapped), and rps is recomputed
  /// as merged completions over merged wall time.
  void merge(const LoadReport& other);

  [[nodiscard]] std::string json() const;
};

/// Runs the load described by @p opts against a listening h2 server.
/// Single-threaded; returns once every connection finished or the run
/// deadline expired.
[[nodiscard]] LoadReport run_load(const LoadOptions& opts);

/// One ClientConnection over one real socket, driven synchronously with
/// poll(2) — the loopback integration tests' workhorse. The caller scripts
/// the client (send_request, send_frame, ...) and pumps the exchange until
/// a predicate holds.
class SocketClient {
 public:
  /// Connects (bounded by @p timeout_ms) and emits the connection preface.
  static Result<std::unique_ptr<SocketClient>> connect(
      const std::string& host, std::uint16_t port,
      core::ClientOptions options = {}, int timeout_ms = 5000);

  [[nodiscard]] core::ClientConnection& client() noexcept { return client_; }

  /// Pumps the exchange until @p done(client) holds. Fails on timeout; an
  /// exchange that ends first returns OK (inspect state()/result()).
  Status pump_until(const std::function<bool(core::ClientConnection&)>& done,
                    int timeout_ms = 5000);

  /// Clean close: GOAWAY, flush, wait for the exchange to settle.
  Status finish(int timeout_ms = 5000);

  [[nodiscard]] net::ExchangeDriver::State state() const noexcept {
    return driver_.state();
  }
  /// Valid once state() == kDone.
  [[nodiscard]] const net::ExchangeResult& result() const noexcept {
    return driver_.result();
  }

 private:
  SocketClient(Fd fd, core::ClientOptions options)
      : transport_(std::move(fd)),
        client_(std::move(options)),
        client_ref_(client_),
        driver_(transport_, client_ref_, transport_.wire()) {}

  SocketTransport transport_;
  core::ClientConnection client_;
  net::EndpointRef<core::ClientConnection> client_ref_;
  net::ExchangeDriver driver_;
};

}  // namespace h2r::netio
