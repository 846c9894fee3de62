// h2serve — the reproduction's deviation engines behind a real TCP port.
//
// Binds an h2c listener on 127.0.0.1 and serves every connection with the
// profile-driven Http2Server engine the corpus scan probes in-process, so
// real clients can poke the same Table III deviations:
//
//   h2serve --port 3000 --profile nginx
//   curl --http2-prior-knowledge http://127.0.0.1:3000/
//
// Prior-knowledge clients (raw preface) and HTTP/1.1 Upgrade: h2c clients
// are both handled; which path a connection took is visible in the stats.
// SIGINT/SIGTERM shut down gracefully: GOAWAY on every live connection, a
// bounded drain (--drain-ms), then the serve stats — and, with --trace-out,
// the H2Wiretap trace + metrics snapshot — are flushed in one piece.
//
// The wiretap is always on: every connection records onto a bounded binary
// tape (4096 records of 32 bytes, see ServeOptions::recorder) replayed into
// a process-wide ring on retirement — directly by shard 0, after the join
// for the other shards. Without --trace-out that ring keeps only the newest
// records under a fixed memory budget; with --trace-out the ring retains
// every record it is handed and exports on exit, either as the legacy JSONL
// or as the raw "H2WT" binary dump (--trace-format=bin, decode offline with
// h2trace-decode). The per-connection tape stays bounded either way, so
// one peer cannot grow the server's memory: a connection that records more
// than 4096 events exports only its newest 4096, and the evicted count is
// the stats' trace_drops (also in the exported metrics snapshot).
//
// Flags (strict parsing: trailing garbage rejects the value):
//   --port N        listen port, 0 = ephemeral  [env H2R_LISTEN_PORT; 3000]
//   --profile KEY   server profile              [env H2R_SERVE_PROFILE; h2o]
//   --shards N      serve shards (threads), each on its own SO_REUSEPORT
//                   listener on the shared port [1]
//   --hardened      enable MitigationPolicy::hardened()
//   --drain-ms N    graceful-shutdown drain budget [2000]
//   --max-conns N   concurrent-connection cap       [1024]
//   --trace-out P   H2Wiretap trace path (+ P.metrics.json) [env H2R_TRACE_OUT]
//   --trace-format F  trace-out encoding: "jsonl" or "bin"  [jsonl]
//   --json          print stats as JSON only (no banner)
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "netio/serve.h"
#include "netio/serve_shard.h"
#include "trace/annotate.h"
#include "trace/event.h"
#include "trace/metrics.h"
#include "trace/recorder.h"
#include "util/parse.h"

namespace {

std::atomic<h2r::netio::ShardedServe*> g_serve{nullptr};

void on_signal(int) {
  if (auto* serve = g_serve.load()) serve->request_shutdown();
}

/// Process-wide ring bound when the trace is not being exported: always-on
/// tracing keeps the newest ~2 MiB of records instead of growing with
/// uptime. --trace-out switches to the unbounded retaining mode.
constexpr std::size_t kIdleTapeRecords = 65536;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--profile KEY] [--shards N] "
               "[--hardened] [--drain-ms N] [--max-conns N] "
               "[--trace-out PATH] [--trace-format jsonl|bin] [--json]\n",
               argv0);
  return 2;
}

bool write_whole_file(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace h2r;

  netio::ServeOptions opts;
  opts.profile_key = "h2o";
  long port = 3000;
  long shards = 1;
  bool json_only = false;
  std::string trace_out;
  bool trace_bin = false;

  if (const char* env = std::getenv("H2R_SERVE_PROFILE")) {
    opts.profile_key = env;
  }
  if (const char* env = std::getenv("H2R_LISTEN_PORT")) {
    const auto v = strict_long_in(env, 0, 65535);
    if (!v.has_value()) {
      std::fprintf(stderr, "h2serve: H2R_LISTEN_PORT=\"%s\" is not a port\n",
                   env);
      return 2;
    }
    port = *v;
  }
  if (const char* env = std::getenv("H2R_TRACE_OUT")) trace_out = env;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const auto v = strict_long_in(value(), 0, 65535);
      if (!v.has_value()) return usage(argv[0]);
      port = *v;
    } else if (arg == "--profile") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opts.profile_key = v;
    } else if (arg == "--shards") {
      const auto v = strict_long_in(value(), 1, 64);
      if (!v.has_value()) return usage(argv[0]);
      shards = *v;
    } else if (arg == "--hardened") {
      opts.hardened = true;
    } else if (arg == "--drain-ms") {
      const auto v = strict_long_in(value(), 0, 3'600'000);
      if (!v.has_value()) return usage(argv[0]);
      opts.drain_ms = static_cast<int>(*v);
    } else if (arg == "--max-conns") {
      const auto v = strict_long_in(value(), 1, 1'000'000);
      if (!v.has_value()) return usage(argv[0]);
      opts.max_connections = static_cast<std::size_t>(*v);
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      trace_out = v;
    } else if (arg == "--trace-format") {
      // Strict like the numeric flags: only the two exact tokens parse, so
      // "binx" or "jsonl " fail loudly instead of silently picking a mode.
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      if (std::strcmp(v, "bin") == 0) {
        trace_bin = true;
      } else if (std::strcmp(v, "jsonl") == 0) {
        trace_bin = false;
      } else {
        std::fprintf(stderr,
                     "h2serve: --trace-format \"%s\" is neither \"jsonl\" "
                     "nor \"bin\"\n",
                     v);
        return usage(argv[0]);
      }
    } else if (arg == "--json") {
      json_only = true;
    } else {
      std::fprintf(stderr, "h2serve: unknown flag \"%s\"\n", argv[i]);
      return usage(argv[0]);
    }
  }
  opts.port = static_cast<std::uint16_t>(port);

  // Always-on wiretap: the sink is a binary ring in both modes. Exporting
  // runs it unbounded so it keeps every connection tape it is handed;
  // otherwise it is a fixed-budget ring — recording costs the same either
  // way (the bench's traced rows), only retention differs.
  trace::RingRecorder recorder(trace_out.empty() ? kIdleTapeRecords : 0);
  opts.recorder = &recorder;

  netio::ShardedServeOptions sharded_opts;
  sharded_opts.base = opts;
  sharded_opts.shards = static_cast<unsigned>(shards);
  auto serve = netio::ShardedServe::create(sharded_opts);
  if (!serve.ok()) {
    std::fprintf(stderr, "h2serve: %s\n",
                 std::string(serve.status().message()).c_str());
    return 1;
  }
  g_serve.store(serve.value().get());

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  if (!json_only) {
    std::printf("h2serve: listening profile=%s%s port=%u shards=%zu "
                "drain_ms=%d%s\n",
                opts.profile_key.c_str(), opts.hardened ? " (hardened)" : "",
                serve.value()->port(), serve.value()->shard_count(),
                opts.drain_ms,
                trace_out.empty() ? "" : (" trace=" + trace_out).c_str());
    std::printf("h2serve: try: curl --http2-prior-knowledge "
                "http://127.0.0.1:%u/\n",
                serve.value()->port());
    std::fflush(stdout);
  }

  const Status run_status = serve.value()->run();
  g_serve.store(nullptr);
  if (!run_status.ok()) {
    std::fprintf(stderr, "h2serve: reactor failed: %s\n",
                 std::string(run_status.message()).c_str());
    return 1;
  }

  // Exports happen after the loop has fully drained, so the trace and the
  // metrics snapshot are written exactly once, whole — never torn by a
  // signal landing mid-write. The binary dump carries no annotator tags
  // (tags are offline-derived); h2trace-decode --annotate reproduces the
  // JSONL this process would have written, byte for byte.
  if (!trace_out.empty()) {
    if (trace_bin) {
      std::string bytes;
      recorder.serialize(bytes);
      if (!write_whole_file(trace_out, bytes)) {
        std::fprintf(stderr, "h2serve: could not write %s\n",
                     trace_out.c_str());
      }
    }
    std::vector<trace::TraceEvent> events = recorder.decode();
    const auto tags = trace::annotate_violations(events);
    if (!trace_bin && !write_whole_file(trace_out, trace::to_jsonl(events))) {
      std::fprintf(stderr, "h2serve: could not write %s\n", trace_out.c_str());
    }
    trace::MetricsRegistry registry;
    trace::consume(registry, events);
    registry.trace_drops =
        serve.value()->stats().trace_drops + recorder.drops();
    if (!write_whole_file(trace_out + ".metrics.json",
                          registry.to_json() + "\n")) {
      std::fprintf(stderr, "h2serve: could not write %s.metrics.json\n",
                   trace_out.c_str());
    }
    if (!json_only && !tags.empty()) {
      std::fprintf(stderr, "h2serve: %zu violation tag(s) in trace\n",
                   tags.size());
    }
  }

  std::printf("%s\n", serve.value()->stats().json().c_str());
  return 0;
}
