// The serve workloads: h2serve's default shape (ShardedServe, one shard,
// always-on 64Ki-record ring) driven by the in-repo load generator over
// real loopback sockets from one generator thread.
//
//   serve_keepalive  nginx, 4 connections x 16 streams, each connection
//                    carrying 2,000 GETs of "/" per round, then replaced
//                    (header-block cache hits; per-connection state that
//                    grows with age over a connection's first 2,000
//                    requests)
//   serve_churn      h2o (push pair, response indexing), 4 connections x 4
//                    streams, 16 GETs per connection then GOAWAY; each
//                    round runs 40 generations of 4 fresh connections
//
// Request budgets are fixed, not durations, because per-request cost
// depends on connection age: each round carries a fixed budget per
// connection, a run carries a fixed number of rounds scaled by --seconds,
// and every rate is the median over rounds. A connection never outlives
// its round: the engine's cost per request grows with the connection's age
// (Http2Server never prunes finished streams), so connections carrying
// their share of a whole run would spend it in that growth.
#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <set>
#include <thread>

#include "bench.h"
#include "capture.h"
#include "core/client.h"
#include "h2/frame_codec.h"
#include "net/transport.h"
#include "netio/load.h"
#include "netio/serve_shard.h"
#include "server/profile.h"
#include "server/site.h"
#include "spans.h"
#include "stats.h"
#include "trace/recorder.h"

namespace perfbench {

using namespace h2r;

namespace {

struct Shape {
  const char* profile;
  int connections;
  int streams;
  int per_connection;  ///< requests each connection carries, then GOAWAY
  int generations;     ///< connection generations per round
  /// Warm-up: generations of connections carrying warmup_per_connection
  /// requests each — enough to fill the header-block caches and allocator
  /// pools, then the connections close.
  int warmup_generations;
  int warmup_per_connection;
  /// Connections the server books as lost (kLostCloseKeys) although the
  /// client saw every response and sent GOAWAY are reported as
  /// netio.unclean_closes instead of failing the run. Any other booking,
  /// and any booking at all on a shape without this flag, fails it.
  bool tolerate_lost_closes;
  /// Timed rounds per --seconds: about the rate a 4-vCPU x86 box sustains.
  /// The timed phase is a fixed budget of seconds x this many rounds, so
  /// every run serves the same requests however fast the machine is at
  /// the moment (the unbounded shard tape makes peak RSS a function of
  /// requests served).
  double rounds_per_second;
};

constexpr Shape kKeepalive{"nginx", 4, 16, 2000, 1, 1, 500, false, 3};
constexpr Shape kChurn{"h2o", 4, 4, 16, 40, 10, 16, true, 8};

/// Sequential GETs in the socket-vs-lockstep identity check.
constexpr int kCheckRequests = 4;
/// The traced run's stated tolerance: the socket replay (accept, recv,
/// engine, tape, sendmsg, close) must account for this share of the live
/// server thread's CPU per request. The replay runs alone and never waits
/// in epoll; the live server shares the machine with the generator thread,
/// sleeps (netio.server_wakeups_per_req) and keeps the loop's epoll
/// interest up to date.
constexpr double kAccountedMin = 0.4;
constexpr double kAccountedMax = 1.25;

/// The bookings h2o churn makes for a client that closed after its GOAWAY
/// with every response received: the server read EOF before the GOAWAY
/// settled, or, with bytes still unread or unsent on the connection, its
/// recv saw ECONNRESET or its sendmsg EPIPE. All three occur on loopback
/// with unchanged code.
const std::set<std::string> kLostCloseKeys = {"EOF", "ECONNRESET", "EPIPE"};

/// One ShardedServe (1 shard) on its own thread, with the always-on ring.
class Server {
 public:
  explicit Server(const Shape& shape) {
    netio::ShardedServeOptions opts;
    opts.base.profile_key = shape.profile;
    opts.base.recorder = &ring_;
    opts.shards = 1;
    auto created = netio::ShardedServe::create(opts);
    if (!created.ok()) {
      error_ = created.status().message();
      return;
    }
    serve_ = std::move(created).value();
    thread_ = std::thread([this] {
      tid_.store(static_cast<int>(::syscall(SYS_gettid)));
      const Status s = serve_->run();
      if (!s.ok()) run_error_ = s.message();
    });
    if (pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) != 0) {
      error_ = "pthread_getcpuclockid failed";
    }
  }
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] bool ok() const { return serve_ != nullptr && error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint16_t port() const { return serve_->port(); }

  /// CPU seconds the serving thread has used; valid until stop().
  [[nodiscard]] double cpu_s() const {
    timespec ts{};
    clock_gettime(cpu_clock_, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  /// Voluntary context switches of the serving thread (its sleeps in
  /// epoll_wait); valid until stop().
  [[nodiscard]] std::uint64_t wakeups() const {
    while (tid_.load() == 0) std::this_thread::yield();
    std::ifstream status("/proc/self/task/" + std::to_string(tid_.load()) +
                         "/status");
    const std::string key = "voluntary_ctxt_switches:";
    for (std::string line; std::getline(status, line);) {
      if (line.rfind(key, 0) == 0) return std::stoull(line.substr(key.size()));
    }
    return 0;
  }

  /// Graceful shutdown; stats(), ring() and run_error() are final
  /// afterwards.
  void stop() {
    if (!thread_.joinable()) return;
    serve_->request_shutdown();
    thread_.join();
  }
  [[nodiscard]] const std::string& run_error() const { return run_error_; }

  [[nodiscard]] const netio::ServeStats& stats() const {
    return serve_->stats();
  }
  [[nodiscard]] const trace::RingRecorder& ring() const { return ring_; }

 private:
  trace::RingRecorder ring_{65536};
  std::unique_ptr<netio::ShardedServe> serve_;
  std::string error_;
  std::string run_error_;  ///< written by the serving thread, read after join
  clockid_t cpu_clock_{};
  std::atomic<int> tid_{0};
  std::thread thread_;
};

/// One measured round; ops counts the requests completed.
struct ServeRound : Round {
  double server_cpu_s = 0;
  double client_cpu_s = 0;
  std::uint64_t server_wakeups = 0;
  std::uint64_t budget = 0;
  std::uint64_t connections = 0;
  double p50_ms = 0;
};

/// Runs @p generations generations of the shape's connections, each
/// carrying @p per_connection requests, against @p server. Fails @p out for
/// any lost request or client-side error.
ServeRound run_round(const Shape& shape, int generations, int per_connection,
                     const Server& server, Outcome& out,
                     SampleSet* latencies) {
  ServeRound r;
  netio::LoadOptions opts;
  opts.port = server.port();
  opts.connections = shape.connections;
  opts.streams = shape.streams;
  opts.requests = shape.connections * per_connection;
  opts.threads = 1;

  SampleSet lat;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  const double w0 = wall_s();
  const double p0 = process_cpu_s();
  const double s0 = server.cpu_s();
  const std::uint64_t z0 = server.wakeups();
  const double c0 = thread_cpu_s();
  const std::uint64_t a0 = heap_allocations();
  for (int g = 0; g < generations; ++g) {
    const Scope span("netio.run_load");
    const netio::LoadReport report = netio::run_load(opts);
    completed += report.completed;
    r.budget += static_cast<std::uint64_t>(opts.requests);
    r.connections += static_cast<std::uint64_t>(opts.connections);
    failed += report.failed + report.rst_streams;
    if (report.completed != static_cast<std::uint64_t>(opts.requests) ||
        report.failed != 0 || report.rst_streams != 0 ||
        report.total_errors() != 0 || !report.errors.empty()) {
      out.fail("lossy load round: " + report.json());
    }
    lat.merge(report.latency_ms);
  }
  r.allocs = heap_allocations() - a0;
  r.client_cpu_s = thread_cpu_s() - c0;
  r.server_cpu_s = server.cpu_s() - s0;
  r.server_wakeups = server.wakeups() - z0;
  r.process_cpu_s = process_cpu_s() - p0;
  r.wall_s = wall_s() - w0;
  r.ops = static_cast<double>(completed);
  r.p50_ms = lat.empty() ? 0 : lat.quantile(0.5);
  if (latencies != nullptr) latencies->merge(lat);
  out.attempted += r.budget;
  out.failed += std::max(failed, r.budget - std::min(r.budget, completed));
  return r;
}

/// Every frame @p client received, serialized back to wire octets in
/// arrival order.
Bytes received_octets(const core::ClientConnection& client) {
  ByteWriter out;
  for (const auto& received : client.events()) {
    (void)h2::serialize_frame_into(out, received.frame);
  }
  return out.take();
}

/// A fresh SocketClient exchange against the live server must receive the
/// byte-identical frame stream the in-process lockstep exchange receives.
std::string check_socket_matches_lockstep(std::uint16_t port,
                                          const Endpoints& ends) {
  server::Http2Server engine(ends.profile, ends.site);
  core::ClientConnection reference;
  net::LockstepTransport lockstep;
  for (int i = 0; i < kCheckRequests; ++i) {
    (void)reference.send_request("/");
    (void)lockstep.run(reference, engine);
  }

  auto sock = netio::SocketClient::connect("127.0.0.1", port);
  if (!sock.ok()) return "socket check: " + sock.status().message();
  core::ClientConnection& client = sock.value()->client();
  for (int i = 0; i < kCheckRequests; ++i) {
    const std::uint32_t id = client.send_request("/");
    const Status pumped = sock.value()->pump_until(
        [id](core::ClientConnection& c) {
          if (!c.stream_complete(id)) return false;
          for (const auto& [pushed, headers] : c.pushes()) {
            (void)headers;
            if (!c.stream_complete(pushed)) return false;
          }
          return true;
        });
    if (!pumped.ok()) return "socket check: " + pumped.message();
  }
  if (const Status s = sock.value()->finish(); !s.ok()) {
    return "socket check: " + s.message();
  }
  if (received_octets(client) != received_octets(reference)) {
    return "socket exchange differs from the lockstep exchange";
  }
  return {};
}

/// Server-side checks after shutdown; returns the unclean-close count.
/// The error taxonomy must be empty, except for kLostCloseKeys bookings on
/// a shape that tolerates them; a disconnect booked without a key (EOF
/// before the preface) fails every shape.
std::uint64_t check_server(const Shape& shape, const Server& server,
                           Outcome& out) {
  if (!server.run_error().empty()) out.fail("serve loop: " + server.run_error());
  const netio::ServeStats& st = server.stats();
  std::uint64_t lost = 0;
  for (const auto& [key, count] : st.errors) {
    if (shape.tolerate_lost_closes && kLostCloseKeys.count(key) != 0) {
      lost += count;
    } else {
      out.fail("server error taxonomy: " + st.json());
    }
  }
  if (st.disconnected != lost || st.accept_refused != 0 ||
      st.drain_expired != 0 || st.declined_h1 != 0) {
    out.fail("server stats: " + st.json());
  }
  return lost;
}

}  // namespace

Outcome run_serve(const RunArgs& args) {
  Outcome out;
  const Shape& shape =
      args.workload == "serve_keepalive" ? kKeepalive : kChurn;
  const Endpoints ends{
      std::make_shared<const server::ServerProfile>(
          server::profile_by_key(shape.profile)),
      std::make_shared<const server::Site>(
          server::Site::standard_testbed_site())};
  const std::uint64_t per_round_requests =
      static_cast<std::uint64_t>(shape.connections) * shape.per_connection *
      shape.generations;

  // ---- setup: server create + ring + warm-up -----------------------------
  // The kept server's set-up is the first of kSetups; the others set up and
  // tear down a fresh server between timed rounds (setups_due).
  std::vector<double> setups;
  Outcome warm;  // warm-up losses fail the run but are not timed ops
  double warmed = 0;
  const auto set_up = [&]() -> std::unique_ptr<Server> {
    const double t0 = wall_s();
    auto s = std::make_unique<Server>(shape);
    if (!s->ok()) {
      out.fail("server create: " + s->error());
      return nullptr;
    }
    warmed = run_round(shape, shape.warmup_generations,
                       shape.warmup_per_connection, *s, warm, nullptr)
                 .ops;
    setups.push_back(wall_s() - t0);
    return s;
  };
  const std::unique_ptr<Server> server = set_up();
  if (!server) return out;
  // Requests the kept server answered.
  auto served = static_cast<std::uint64_t>(warmed);

  if (std::string e = check_socket_matches_lockstep(server->port(), ends);
      !e.empty()) {
    out.fail("before timed phase: " + e);
  }
  served += kCheckRequests;

  // ---- timed phase --------------------------------------------------------
  std::vector<ServeRound> rounds;
  SampleSet latencies;
  const auto budget = static_cast<std::size_t>(
      std::max(3.0, std::round(args.seconds * shape.rounds_per_second)));
  const double start = wall_s();
  while (rounds.size() < budget) {
    // The traced run alternates span-recording and plain rounds; their
    // throughput difference is trace.overhead_frac.
    const bool traced = args.trace && rounds.size() % 2 == 1;
    spans().set_enabled(traced);
    ServeRound r = run_round(shape, shape.generations, shape.per_connection,
                        *server, out, args.trace ? &latencies : nullptr);
    spans().set_enabled(args.trace);
    r.traced = traced;
    served += static_cast<std::uint64_t>(r.ops);
    rounds.push_back(r);
    if (!out.correct()) break;
    while (setups.size() <
           setups_due(static_cast<double>(rounds.size()) / budget)) {
      if (const auto extra = set_up()) extra->stop();
    }
  }
  const double timed_wall = wall_s() - start;
  for (const std::string& f : warm.failures) out.fail("warm-up: " + f);

  if (std::string e = check_socket_matches_lockstep(server->port(), ends);
      !e.empty()) {
    out.fail("after timed phase: " + e);
  }
  served += kCheckRequests;
  server->stop();
  const std::uint64_t unclean = check_server(shape, *server, out);

  const auto med = [&rounds](auto field, Which which = Which::kAll) {
    return median_over(rounds, field, which);
  };
  const auto per_req = [](double total, const ServeRound& r) {
    return ratio(total, r.ops);
  };
  // Request submit to END_STREAM: the rounds' median latencies, averaged
  // over their middle half (the loop clock ticks in microseconds, and a
  // stalled round's median sits far out). Not gated: on keep-alive it
  // sits in one of two host-dependent regimes (NOTES.md).
  std::vector<double> p50s;
  for (const ServeRound& r : rounds) p50s.push_back(r.p50_ms);
  const double lat_p50_ms = interquartile_mean(p50s);

  if (!args.trace) {
    add_end_to_end(out, setups, rounds);
    std::printf("lat_p50_ms %.6f ms (not gated; netio.lat_p50_ms per layer)\n"
                "unclean_closes %llu  rounds %zu  requests/round %llu\n",
                lat_p50_ms, static_cast<unsigned long long>(unclean),
                rounds.size(),
                static_cast<unsigned long long>(per_round_requests));
    return out;
  }

  // ---- traced run: per-layer metrics -------------------------------------
  const netio::ServeStats& st = server->stats();
  const double served_d = static_cast<double>(served);
  const double server_cpu_us = med([&](const ServeRound& r) {
    return per_req(r.server_cpu_s * 1e6, r);
  });
  out.add("netio.server_cpu_us_per_req", server_cpu_us, "us");
  out.add("netio.client_cpu_us_per_req", med([&](const ServeRound& r) {
            return per_req(r.client_cpu_s * 1e6, r);
          }),
          "us");
  out.add("netio.server_wakeups_per_req", med([&](const ServeRound& r) {
            return per_req(static_cast<double>(r.server_wakeups), r);
          }),
          "count");
  out.add("netio.server_busy_frac",
          med([](const ServeRound& r) {
            return ratio(r.server_cpu_s, r.wall_s);
          }),
          "ratio");
  out.add("netio.lat_p50_ms", lat_p50_ms, "ms");
  const auto p99 = supported_tail(latencies.samples(), 0.99);
  const auto p999 = supported_tail(latencies.samples(), 0.999);
  out.add("netio.lat_p99_ms", p99.value_or(0), "ms");
  out.add("netio.lat_p999_ms", p999.value_or(0), "ms");
  out.add("netio.lat_samples", static_cast<double>(latencies.size()),
          "count");
  out.add("netio.rounds_per_req", ratio(st.rounds, served_d), "count");
  out.add("netio.bytes_in_per_req", ratio(st.bytes_in, served_d), "B");
  out.add("netio.bytes_out_per_req", ratio(st.bytes_out, served_d), "B");
  double conns = 0;
  for (const ServeRound& r : rounds) {
    conns += static_cast<double>(r.connections);
  }
  out.add("netio.conns_per_s", ratio(conns, timed_wall), "1/s");
  out.add("netio.unclean_closes", static_cast<double>(unclean), "count");

  // Replays of one connection's captured traffic, layer by layer.
  Capture cap = capture_connection(ends, shape.per_connection, shape.streams);
  Analysis an = analyze(cap);
  if (cap.pieces.empty() || !an.error.empty() ||
      cap.requests != shape.per_connection) {
    out.fail("capture: " + (an.error.empty() ? "lockstep exchange failed"
                                              : an.error));
    return out;
  }
  // Enough connections that each replay covers a round's worth of work.
  const int copies = std::max(1, shape.generations * shape.connections / 4);
  const std::vector<const Capture*> caps(static_cast<std::size_t>(copies),
                                         &cap);
  const std::vector<const Analysis*> ans(static_cast<std::size_t>(copies),
                                         &an);
  constexpr int kReps = 7;
  const EngineCost engine = replay_engine(caps, ends, kReps);
  const StageCost parse = replay_parse(caps, kReps);
  const StageCost decode = replay_decode(ans, kReps);
  const StageCost encode = replay_encode(
      ans,
      std::vector<hpack::IndexingPolicy>(ans.size(),
                                         ends.profile->response_indexing),
      kReps);
  const StageCost serialize = replay_serialize(ans, kReps);
  const StageCost record = replay_record(ans, kReps);
  const double drive_us = replay_netio(caps, ends, kReps);
  if (drive_us < 0) out.fail("netio replay diverged from the capture");

  const double reqs = static_cast<double>(cap.requests);
  out.add("server.engine_us_per_req", engine.us_per_req, "us");
  out.add("server.engine_us_per_req_first1k", engine.us_per_req_first1k, "us");
  out.add("server.engine_us_per_req_last1k", engine.us_per_req_last1k, "us");
  out.add("server.allocs_per_req", engine.allocs_per_req, "count");
  out.add("server.retained_blocks_per_req", engine.retained_blocks_per_req,
          "count");
  out.add("server.streams_per_req",
          ratio(reqs + static_cast<double>(an.pushes), reqs), "count");
  out.add("server.header_cache_hit_ratio",
          ratio(st.header_cache_hits,
                static_cast<double>(st.header_cache_hits +
                                    st.header_cache_misses)),
          "ratio");
  out.add("hpack.encode_ns_per_block", encode.ns_per_unit, "ns");
  out.add("hpack.decode_ns_per_block", decode.ns_per_unit, "ns");
  out.add("hpack.blocks_per_op",
          ratio(static_cast<double>(an.c2s_blocks.size() + an.s2c_lists.size()),
                reqs),
          "count");
  out.add("h2.parse_ns_per_frame", parse.ns_per_unit, "ns");
  out.add("h2.serialize_ns_per_frame", serialize.ns_per_unit, "ns");
  out.add("h2.frames_per_op",
          ratio(static_cast<double>(an.c2s_frames.size() + an.s2c_frames.size()),
                reqs),
          "count");
  // Records the connection tapes took, whether kept or evicted.
  out.add("trace.records_per_op",
          ratio(static_cast<double>(server->ring().events_recorded() +
                                    st.trace_drops),
                served_d),
          "count");
  out.add("trace.record_ns_per_record", record.ns_per_unit, "ns");
  out.add("trace.drops", static_cast<double>(st.trace_drops), "count");
  out.add("trace.fold_us_per_site", 0, "us");
  out.add("trace.overhead_frac", trace_overhead_frac(rounds), "ratio");
  out.add("netio.drive_us_per_req", drive_us, "us");
  out.add("netio.self_us_per_req", drive_us - engine.us_per_req, "us");
  const double accounted = ratio(drive_us, server_cpu_us);
  out.add("netio.accounted_frac", accounted, "ratio");
  if (accounted < kAccountedMin || accounted > kAccountedMax) {
    out.fail("replayed stages account for " + std::to_string(accounted) +
             " of the live server CPU per request, outside [" +
             std::to_string(kAccountedMin) + ", " +
             std::to_string(kAccountedMax) + "]");
  }
  return out;
}

}  // namespace perfbench
