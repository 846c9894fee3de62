#include "netio/load.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <optional>
#include <poll.h>
#include <sys/epoll.h>
#include <thread>
#include <vector>

#include "net/readiness.h"
#include "netio/event_loop.h"

namespace h2r::netio {

namespace {

constexpr net::ExchangeLimits kLoadLimits{.max_rounds = 1 << 30,
                                          .max_bytes = 0};

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The load client keeps in-flight state only, never the responses.
core::ClientOptions completions_only() {
  core::ClientOptions options;
  options.keep = core::ClientOptions::Keep::kCompletions;
  return options;
}

std::string fmt_ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

void LoadReport::merge(const LoadReport& other) {
  completed += other.completed;
  failed += other.failed;
  rst_streams += other.rst_streams;
  connect_errors += other.connect_errors;
  transport_errors += other.transport_errors;
  protocol_errors += other.protocol_errors;
  clean_closes += other.clean_closes;
  wall_ms = std::max(wall_ms, other.wall_ms);
  latency_ms.merge(other.latency_ms);
  for (const auto& [key, count] : other.errors) errors[key] += count;
  rps = wall_ms > 0.0
            ? static_cast<double>(completed) / (wall_ms / 1000.0)
            : 0.0;
}

std::string LoadReport::json() const {
  std::string out = "{";
  const auto field = [&out](std::string_view key, std::uint64_t v) {
    out += "\"";
    out += key;
    out += "\":" + std::to_string(v) + ",";
  };
  field("completed", completed);
  field("failed", failed);
  field("rst_streams", rst_streams);
  field("connect_errors", connect_errors);
  field("transport_errors", transport_errors);
  field("protocol_errors", protocol_errors);
  field("clean_closes", clean_closes);
  field("errors_total", total_errors());
  out += "\"wall_ms\":" + fmt_ms(wall_ms) + ",";
  out += "\"rps\":" + fmt_ms(rps) + ",";
  out += "\"latency_ms\":{";
  if (latency_ms.empty()) {
    out += "\"count\":0";
  } else {
    out += "\"count\":" + std::to_string(latency_ms.size());
    out += ",\"mean\":" + fmt_ms(latency_ms.mean());
    out += ",\"p50\":" + fmt_ms(latency_ms.quantile(0.50));
    out += ",\"p90\":" + fmt_ms(latency_ms.quantile(0.90));
    out += ",\"p99\":" + fmt_ms(latency_ms.quantile(0.99));
    out += ",\"p999\":" + fmt_ms(latency_ms.quantile(0.999));
    out += ",\"max\":" + fmt_ms(latency_ms.max());
  }
  out += "},\"errors\":{";
  bool first = true;
  for (const auto& [key, count] : errors) {
    if (!first) out += ",";
    first = false;
    out += "\"" + key + "\":" + std::to_string(count);
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------- run_load

namespace {

class Runner;

struct Cn final : IoHandler {
  Cn(Runner& runner, int index, Fd fd, int target, int streams)
      : runner(runner),
        index(index),
        transport(std::move(fd)),
        client(completions_only()),
        client_ref(client),
        target(target) {
    inflight.reserve(static_cast<std::size_t>(std::max(1, streams)));
  }

  void on_ready(std::uint32_t events) override;

  Runner& runner;
  int index;
  SocketTransport transport;
  core::ClientConnection client;
  net::EndpointRef<core::ClientConnection> client_ref;
  std::optional<net::ExchangeDriver> driver;
  /// (stream id, submit µs) per request in flight; at most `streams`.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> inflight;
  int target;       ///< this connection's share of the request budget
  int issued = 0;
  std::uint32_t interest = EPOLLOUT;
  bool connecting = true;
  bool closed = false;  ///< GOAWAY queued
  bool done = false;
};

class Runner {
 public:
  explicit Runner(const LoadOptions& opts) : opts_(opts) {}

  LoadReport run();
  void drive(Cn& cn);

 private:
  void fail_connect(Cn& cn, int err, std::string_view key);
  /// Records completions, refills the in-flight window, queues the GOAWAY
  /// once the budget is served. True when new output wants flushing.
  bool harvest(Cn& cn);
  void settle(Cn& cn);
  void retire(Cn& cn);
  void update_interest(Cn& cn);

  LoadOptions opts_;
  EpollLoop loop_;
  std::vector<std::unique_ptr<Cn>> conns_;
  net::TimerWheel<int> timers_;  ///< connect deadlines (+ -1 = run deadline)
  LoadReport report_;
  std::uint64_t t0_us_ = 0;
  int live_ = 0;
};

void Cn::on_ready(std::uint32_t events) {
  (void)events;
  runner.drive(*this);
}

void Runner::fail_connect(Cn& cn, int err, std::string_view key) {
  ++report_.connect_errors;
  ++report_.errors[std::string(key.empty() ? errno_key(err) : key)];
  report_.failed += static_cast<std::uint64_t>(cn.target);
  retire(cn);
}

void Runner::retire(Cn& cn) {
  if (cn.done) return;
  cn.done = true;
  loop_.remove(cn.transport.fd());
  cn.transport.close();
  --live_;
}

void Runner::update_interest(Cn& cn) {
  const std::uint32_t want =
      cn.connecting ? EPOLLOUT
                    : EPOLLIN | (cn.transport.wants_write() ? EPOLLOUT : 0u);
  if (want == cn.interest) return;
  if (loop_.modify(cn.transport.fd(), want).ok()) cn.interest = want;
}

bool Runner::harvest(Cn& cn) {
  bool queued = false;
  const std::uint64_t now = steady_us();
  std::size_t kept = 0;
  for (const auto& [id, submit_us] : cn.inflight) {
    if (cn.client.stream_complete(id)) {
      ++report_.completed;
      report_.latency_ms.add(static_cast<double>(now - submit_us) / 1000.0);
    } else if (cn.client.rst_on(id).has_value()) {
      ++report_.rst_streams;
      ++report_.failed;
      ++report_.errors["RST_STREAM"];
    } else {
      cn.inflight[kept++] = {id, submit_us};
    }
  }
  cn.inflight.resize(kept);
  while (cn.client.alive() && cn.issued < cn.target &&
         cn.inflight.size() < static_cast<std::size_t>(opts_.streams)) {
    const std::uint32_t id = cn.client.send_request(opts_.path);
    cn.inflight.emplace_back(id, steady_us());
    ++cn.issued;
    queued = true;
  }
  if (cn.client.alive() && !cn.closed && cn.issued >= cn.target &&
      cn.inflight.empty()) {
    cn.client.close();
    cn.closed = true;
    queued = true;
  }
  return queued;
}

void Runner::settle(Cn& cn) {
  const net::ExchangeResult& r = cn.driver->result();
  const core::TerminalInfo& t = cn.client.terminal();
  // Anything still in flight — or never issued — on a finished connection
  // is a failed request.
  report_.failed += static_cast<std::uint64_t>(cn.inflight.size());
  report_.failed += static_cast<std::uint64_t>(cn.target - cn.issued);
  cn.inflight.clear();
  if (t.state == core::ClientTerminal::kProtocolError) {
    ++report_.protocol_errors;
    ++report_.errors["protocol"];
  } else if (t.state == core::ClientTerminal::kTransportError ||
             r.outcome == net::ExchangeOutcome::kDisconnected) {
    ++report_.transport_errors;
    ++report_.errors[cn.transport.failed()
                         ? errno_key(cn.transport.last_errno())
                         : "EOF"];
  } else if (r.outcome == net::ExchangeOutcome::kQuiescent) {
    ++report_.clean_closes;
    // A server-initiated GOAWAY is a clean close, but one that may have
    // cut the budget short; keep the cause visible.
    if (cn.client.goaway_received() && cn.issued < cn.target) {
      ++report_.errors["server-goaway"];
    }
  } else {
    ++report_.transport_errors;
    ++report_.errors["exchange-cap"];
  }
  retire(cn);
}

void Runner::drive(Cn& cn) {
  if (cn.done) return;
  if (cn.connecting) {
    const int err = pending_socket_error(cn.transport.fd());
    if (err != 0) {
      fail_connect(cn, err, "");
      return;
    }
    cn.connecting = false;
    cn.driver.emplace(cn.transport, cn.client_ref, cn.transport.wire(),
                      kLoadLimits);
  }
  while (true) {
    if (cn.driver->state() == net::ExchangeDriver::State::kParked) {
      cn.driver->unpark();
    }
    if (cn.driver->pump() == net::ExchangeDriver::State::kDone) {
      settle(cn);
      return;
    }
    if (!harvest(cn)) break;  // nothing new to flush: wait for readiness
  }
  update_interest(cn);
}

LoadReport Runner::run() {
  if (!loop_.status().ok()) {
    report_.errors["reactor"] = 1;
    report_.failed = static_cast<std::uint64_t>(opts_.requests);
    return report_;
  }
  t0_us_ = steady_us();
  const auto now_ms = [this] { return (steady_us() - t0_us_) / 1000; };

  const int n = std::max(1, opts_.connections);
  const int per = opts_.requests / n;
  const int extra = opts_.requests % n;
  for (int i = 0; i < n; ++i) {
    const int target = per + (i < extra ? 1 : 0);
    auto fd = connect_tcp(opts_.host, opts_.port);
    if (!fd.ok()) {
      ++report_.connect_errors;
      ++report_.errors["connect"];
      report_.failed += static_cast<std::uint64_t>(target);
      continue;
    }
    auto cn = std::make_unique<Cn>(*this, i, std::move(fd).value(), target,
                                   opts_.streams);
    if (!loop_.add(cn->transport.fd(), cn.get(), EPOLLOUT).ok()) {
      ++report_.connect_errors;
      ++report_.errors["epoll-add"];
      report_.failed += static_cast<std::uint64_t>(target);
      continue;
    }
    ++live_;
    timers_.park(now_ms() + static_cast<std::uint64_t>(opts_.connect_timeout_ms),
                 i);
    conns_.push_back(std::move(cn));
  }
  timers_.park(now_ms() + static_cast<std::uint64_t>(opts_.run_timeout_ms), -1);

  bool expired = false;
  while (live_ > 0 && !expired) {
    int timeout = -1;
    if (!timers_.empty()) {
      const std::uint64_t next = timers_.next_tick();
      const std::uint64_t now = now_ms();
      timeout = next > now ? static_cast<int>(std::min<std::uint64_t>(
                                 next - now, 60'000))
                           : 0;
    }
    auto polled = loop_.poll(timeout);
    if (!polled.ok()) {
      report_.errors["reactor"] += 1;
      break;
    }
    for (const int idx : timers_.pop_due(now_ms())) {
      if (idx < 0) {
        // Whole-run deadline: whatever is still open is failed work.
        expired = true;
        break;
      }
      Cn& cn = *conns_[static_cast<std::size_t>(idx)];
      if (!cn.done && cn.connecting) fail_connect(cn, ETIMEDOUT, "ETIMEDOUT");
    }
  }
  for (auto& cn : conns_) {
    if (cn->done) continue;
    ++report_.transport_errors;
    ++report_.errors["run-timeout"];
    report_.failed += static_cast<std::uint64_t>(cn->inflight.size());
    report_.failed += static_cast<std::uint64_t>(cn->target - cn->issued);
    retire(*cn);
  }

  report_.wall_ms = static_cast<double>(steady_us() - t0_us_) / 1000.0;
  report_.rps = report_.wall_ms > 0.0
                    ? static_cast<double>(report_.completed) /
                          (report_.wall_ms / 1000.0)
                    : 0.0;
  return report_;
}

}  // namespace

LoadReport run_load(const LoadOptions& opts) {
  const int threads =
      std::min(std::max(1, opts.threads), std::max(1, opts.connections));
  if (threads == 1) return Runner(opts).run();
  // One single-threaded runner per thread, each with its own reactor and a
  // round-robin share of the connections and the request budget.
  const int conns = std::max(1, opts.connections);
  std::vector<LoadReport> parts(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    LoadOptions part = opts;
    part.threads = 1;
    part.connections = conns / threads + (i < conns % threads ? 1 : 0);
    part.requests =
        opts.requests / threads + (i < opts.requests % threads ? 1 : 0);
    pool.emplace_back([part, &parts, i] {
      parts[static_cast<std::size_t>(i)] = Runner(part).run();
    });
  }
  for (auto& t : pool) t.join();
  LoadReport merged;
  for (const LoadReport& part : parts) merged.merge(part);
  return merged;
}

// ------------------------------------------------------------ SocketClient

Result<std::unique_ptr<SocketClient>> SocketClient::connect(
    const std::string& host, std::uint16_t port, core::ClientOptions options,
    int timeout_ms) {
  auto fd = connect_tcp(host, port);
  if (!fd.ok()) return fd.status();
  pollfd p{fd.value().get(), POLLOUT, 0};
  int r;
  do {
    r = ::poll(&p, 1, timeout_ms);
  } while (r < 0 && errno == EINTR);
  if (r < 0) return errno_status(errno, "poll");
  if (r == 0) return UnavailableError("connect: timed out");
  if (const int err = pending_socket_error(fd.value().get()); err != 0) {
    return errno_status(err, "connect");
  }
  return std::unique_ptr<SocketClient>(
      new SocketClient(std::move(fd).value(), std::move(options)));
}

Status SocketClient::pump_until(
    const std::function<bool(core::ClientConnection&)>& done,
    int timeout_ms) {
  const std::uint64_t deadline =
      steady_us() + static_cast<std::uint64_t>(timeout_ms) * 1000;
  while (true) {
    if (driver_.state() == net::ExchangeDriver::State::kParked) {
      driver_.unpark();
    }
    if (driver_.pump() == net::ExchangeDriver::State::kDone) return OkStatus();
    if (done && done(client_)) return OkStatus();
    const std::uint64_t now = steady_us();
    if (now >= deadline) return UnavailableError("pump_until: timed out");
    pollfd p{transport_.fd(),
             static_cast<short>(POLLIN |
                                (transport_.wants_write() ? POLLOUT : 0)),
             0};
    const int wait_ms = static_cast<int>((deadline - now) / 1000) + 1;
    int r;
    do {
      r = ::poll(&p, 1, wait_ms);
    } while (r < 0 && errno == EINTR);
    if (r < 0) return errno_status(errno, "poll");
    if (r == 0) return UnavailableError("pump_until: timed out");
  }
}

Status SocketClient::finish(int timeout_ms) {
  if (driver_.state() != net::ExchangeDriver::State::kDone) {
    client_.close();
    if (Status s = pump_until(
            [](core::ClientConnection&) { return false; }, timeout_ms);
        !s.ok()) {
      return s;
    }
  }
  if (driver_.result().outcome != net::ExchangeOutcome::kQuiescent) {
    return UnavailableError(
        "finish: exchange ended " +
        std::string(net::to_string(driver_.result().outcome)));
  }
  return OkStatus();
}

}  // namespace h2r::netio
