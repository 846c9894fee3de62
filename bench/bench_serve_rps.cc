// Serve-throughput harness: the real-socket serving mode end to end.
//
// Boots a listener on an ephemeral loopback port, drives it with the
// in-repo load generator (the same reactor h2load-mini wraps), and reports
// requests/sec plus the latency distribution. Every row serves through
// ShardedServe with the load generator threaded to match its shard count.
// Three rows run one shard:
//
//   serve_h2o            the h2o profile, stock budgets
//   serve_nginx          the nginx profile, stock budgets
//   serve_h2o_hardened   h2o with MitigationPolicy::hardened() — the cost
//                        of the mitigation ledger on legitimate load
//
// and a shard sweep continues the nginx row:
//
//   serve_nginx_shards2  SO_REUSEPORT kernel-balanced accepts, 2 shards
//   serve_nginx_shards4  ... 4 shards (only scales on multi-core hosts;
//                        _meta.hw_concurrency records what this box had)
//
// JSON schema: { "<row>": {"wall_ms": w, "per_op_ns": n, "throughput": t,
// "allocs_per_op": a}, "_meta": {"hw_concurrency": c} } where throughput is
// requests/sec, per_op_ns is wall time per completed request, and
// allocs_per_op is process-wide heap allocations per completed request
// (client + server + harness — the end-to-end figure). Underscore-prefixed
// keys are metadata, not bench rows. Output path defaults to
// BENCH_serve_rps.json in the working directory; override with
// H2R_BENCH_JSON. H2R_SCALE=N divides the request budget by N (the
// committed baseline is a full-scale run). Any transport or protocol error
// fails the process — a benchmark over a lossy loopback is not a benchmark.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "bench/count_allocs.h"
#include "netio/load.h"
#include "netio/serve_shard.h"

namespace {

struct RowResult {
  double wall_ms = 0;
  double per_op_ns = 0;
  double throughput = 0;   ///< completed requests per second
  double allocs_per_op = 0;  ///< heap allocations per completed request
};

std::map<std::string, RowResult> g_results;
bool g_failed = false;

struct RowSpec {
  std::string name;
  std::string profile_key;
  bool hardened = false;
  /// ShardedServe shards, and load-generator threads to match.
  unsigned shards = 1;
};

void run_row(const RowSpec& spec, int connections, int requests,
             int streams) {
  using namespace h2r;

  const std::uint64_t allocs0 = bench::heap_allocations();

  netio::ShardedServeOptions shopts;
  shopts.base.profile_key = spec.profile_key;
  shopts.base.hardened = spec.hardened;
  shopts.base.max_connections = connections + 8;
  shopts.shards = spec.shards;
  auto serve = netio::ShardedServe::create(shopts);
  if (!serve.ok()) {
    std::fprintf(stderr, "!! %s: %s\n", spec.name.c_str(),
                 std::string(serve.status().message()).c_str());
    g_failed = true;
    return;
  }
  std::thread server_thread([&] {
    const Status s = serve.value()->run();
    if (!s.ok()) {
      std::fprintf(stderr, "!! %s: sharded serve: %s\n", spec.name.c_str(),
                   std::string(s.message()).c_str());
    }
  });
  netio::LoadOptions lopts;
  lopts.port = serve.value()->port();
  lopts.connections = connections;
  lopts.requests = requests;
  lopts.streams = streams;
  lopts.threads = static_cast<int>(spec.shards);
  const netio::LoadReport report = netio::run_load(lopts);
  serve.value()->request_shutdown();
  server_thread.join();

  const double completed = static_cast<double>(report.completed);
  const double allocs_per_op =
      completed > 0
          ? static_cast<double>(bench::heap_allocations() - allocs0) /
                completed
          : 0.0;
  g_results[spec.name] = {
      report.wall_ms,
      completed > 0 ? report.wall_ms * 1e6 / completed : 0.0, report.rps,
      allocs_per_op};
  std::printf(
      "%-22s %8.1f ms  %9.0f req/s  %6.1f allocs/op  "
      "p50=%.3f p99=%.3f p999=%.3f ms\n",
      spec.name.c_str(), report.wall_ms, report.rps, allocs_per_op,
      report.latency_ms.quantile(0.50), report.latency_ms.quantile(0.99),
      report.latency_ms.quantile(0.999));

  if (report.completed != static_cast<std::uint64_t>(requests) ||
      report.total_errors() != 0 || report.failed != 0) {
    std::fprintf(stderr, "!! %s: lossy run — %s\n", spec.name.c_str(),
                 report.json().c_str());
    g_failed = true;
  }
  const netio::ServeStats& stats = serve.value()->stats();
  if (stats.served_clean != static_cast<std::uint64_t>(connections) ||
      !stats.errors.empty()) {
    std::fprintf(stderr, "!! %s: server-side errors — %s\n",
                 spec.name.c_str(), stats.json().c_str());
    g_failed = true;
  }
}

void write_json() {
  const char* path_env = std::getenv("H2R_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_serve_rps.json";
  std::string out = "{\n";
  bool first = true;
  for (const auto& [row, r] : g_results) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s  \"%s\": {\"wall_ms\": %.3f, \"per_op_ns\": %.2f, "
                  "\"throughput\": %.2f, \"allocs_per_op\": %.2f}",
                  first ? "" : ",\n", row.c_str(), r.wall_ms, r.per_op_ns,
                  r.throughput, r.allocs_per_op);
    out += line;
    first = false;
  }
  char meta[96];
  std::snprintf(meta, sizeof(meta),
                ",\n  \"_meta\": {\"hw_concurrency\": %u}",
                std::thread::hardware_concurrency());
  out += meta;
  out += "\n}\n";
  h2r::bench::write_file_or_warn(path, out);
}

}  // namespace

int main() {
  h2r::bench::print_banner("Serve RPS - loopback listener + load generator");

  // Full scale: 32 connections x 8 streams chewing through 20k requests.
  // H2R_SCALE=N shrinks the budget for smoke runs (CI uses N=50).
  const double scale = h2r::bench::scale_from_env();
  const int connections = 32;
  const int streams = 8;
  const int requests =
      static_cast<int>(20000 / scale) < connections
          ? connections
          : static_cast<int>(20000 / scale);
  std::printf("con=%d streams=%d req=%d cores=%u\n\n", connections, streams,
              requests, std::thread::hardware_concurrency());

  run_row({"serve_h2o", "h2o", false, 1}, connections, requests, streams);
  run_row({"serve_nginx", "nginx", false, 1}, connections, requests,
          streams);
  run_row({"serve_h2o_hardened", "h2o", true, 1}, connections, requests,
          streams);
  for (const unsigned shards : {2u, 4u}) {
    run_row({"serve_nginx_shards" + std::to_string(shards), "nginx", false,
             shards},
            connections, requests, streams);
  }

  write_json();
  return g_failed ? 1 : 0;
}
