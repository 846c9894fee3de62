// Scan-throughput harness: the perf trajectory for the whole reproduction.
//
// Times one request/response conversation three ways (fresh, rewound,
// traced) and complete epoch-2 scans (clean, traced, faulted, and the
// faulted 1/1000 subsample on one worker), then prints per-op time and
// rate and writes the results to a machine-readable JSON file that CI's
// bench guards compare against the last committed run. The wire-stack
// stages are timed elsewhere, once each: the frame codec in
// bench_micro_protocol, HPACK and Huffman coding in bench_ablation_hpack.
//
// JSON schema: { "<op>": {"wall_ms": w, "per_op_ns": n, "throughput": t,
// "allocs_per_op": a} } where throughput is conversations/sec for the
// exchange_* rows and sites/sec for the scan rows, and allocs_per_op counts
// heap allocations per conversation or site (the operator-new hook in
// bench/count_allocs.h). Output path defaults to
// BENCH_scan_throughput.json in the working directory; override with
// H2R_BENCH_JSON. H2R_SCALE / H2R_SEED / H2R_THREADS apply as in every
// other bench, except that scan_epoch2_faulted_1k always scans the 1/1000
// subsample on one worker. H2R_TRACE_OUT=<path> additionally dumps the
// traced scan's H2Wiretap JSONL to <path> and its metrics snapshot to
// <path>.metrics.json. H2R_FAULT_SEED reseeds the scan_epoch2_faulted chaos
// row's fault schedules.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "bench/count_allocs.h"
#include "core/probes.h"
#include "net/transport.h"
#include "server/profile.h"
#include "trace/annotate.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct OpResult {
  double wall_ms = 0;
  double per_op_ns = 0;
  double throughput = 0;  ///< conversations/sec or sites/sec
  double allocs_per_op = 0;  ///< heap allocations per op
};

std::map<std::string, OpResult> g_results;

void record(const std::string& op, double wall_ms, double ops,
            double throughput, double allocs_per_op) {
  g_results[op] = {wall_ms, ops > 0 ? wall_ms * 1e6 / ops : 0.0, throughput,
                   allocs_per_op};
  std::printf("%-24s %10.1f ms   %10.1f ns/op   %12.1f /s"
              "   %8.1f allocs/op\n",
              op.c_str(), wall_ms, g_results[op].per_op_ns, throughput,
              allocs_per_op);
}

/// One full request/response conversation (client + server engine +
/// lockstep exchange) per op — the unit the wiretap instruments. The
/// untraced row measures the null-sink cost; the traced row records every
/// frame into a ring cleared per op and annotates + folds it the way the
/// scan does (trace::fold_ring; the gap between them is the subsystem's
/// whole overhead budget); the reused row rewinds one client +
/// engine + transport with reset() instead of reconstructing — the path
/// the scan's per-worker scratch actually takes. Each row also reports heap
/// allocations per conversation (operator-new hook).
void bench_exchange() {
  using namespace h2r;
  const core::Target base = core::Target::testbed(server::nginx_profile());
  constexpr int kIters = 3000;

  const auto run_one = [](const core::Target& target) {
    core::ClientConnection client(target.client_options());
    auto server = target.make_server();
    client.send_request("/");
    net::LockstepTransport(client.recorder()).run(client, server);
    return client.events().size();
  };

  const auto per_op = [](std::uint64_t allocs) {
    return static_cast<double>(allocs) / kIters;
  };

  std::size_t frames = 0;
  std::uint64_t allocs0 = bench::heap_allocations();
  const auto ustart = Clock::now();
  for (int it = 0; it < kIters; ++it) frames += run_one(base);
  const double uwall = ms_since(ustart);
  record("exchange_untraced", uwall, kIters,
         static_cast<double>(kIters) / (uwall / 1000.0),
         per_op(bench::heap_allocations() - allocs0));

  {
    core::ClientConnection client(base.client_options());
    auto server = base.make_server();
    net::LockstepTransport transport(client.recorder());
    allocs0 = bench::heap_allocations();
    const auto rstart = Clock::now();
    for (int it = 0; it < kIters; ++it) {
      client.reset();
      base.reset_server(server);
      client.send_request("/");
      transport.run(client, server);
      frames += client.events().size();
    }
    const double rwall = ms_since(rstart);
    record("exchange_reused", rwall, kIters,
           static_cast<double>(kIters) / (rwall / 1000.0),
           per_op(bench::heap_allocations() - allocs0));
  }

  trace::MetricsRegistry registry;
  trace::MetricsRecorder folder(registry);
  trace::TagCounts tags;
  trace::RecordTags record_tags;
  trace::RingRecorder ring;
  core::Target traced = base;
  traced.recorder = &ring;
  allocs0 = bench::heap_allocations();
  const auto tstart = Clock::now();
  for (int it = 0; it < kIters; ++it) {
    ring.clear();
    frames += run_one(traced);
    trace::fold_ring(ring, registry, folder, tags, record_tags);
  }
  const double twall = ms_since(tstart);
  record("exchange_traced", twall, kIters,
         static_cast<double>(kIters) / (twall / 1000.0),
         per_op(bench::heap_allocations() - allocs0));
  std::printf("  (traced: %llu frames, %llu connections folded)\n",
              static_cast<unsigned long long>(registry.total_frames()),
              static_cast<unsigned long long>(registry.connections));
  (void)frames;
}

void bench_scan(std::uint64_t seed) {
  using namespace h2r;
  corpus::ScanOptions opts = bench::scan_options();
  opts.seed = seed;
  const auto pop = bench::population_for(corpus::Epoch::kExp2);
  const double sites = static_cast<double>(pop.sites.size());
  const auto scan_allocs = [&sites](std::uint64_t allocs) {
    return static_cast<double>(allocs) / sites;
  };
  std::uint64_t allocs0 = bench::heap_allocations();
  const auto start = Clock::now();
  const auto report = corpus::scan_population(pop, opts);
  const double wall = ms_since(start);
  record("scan_epoch2", wall, sites, sites / (wall / 1000.0),
         scan_allocs(bench::heap_allocations() - allocs0));
  std::printf("  (%zu sites scanned, %zu responding, threads=%d)\n",
              pop.sites.size(), report.responding_sites, opts.threads);

  // Same scan with the wiretap folding metrics on every connection — the
  // end-to-end cost of tracing a full-population scan. With H2R_TRACE_OUT
  // set, the per-site JSONL traces are kept too and dumped to that path
  // (metrics snapshot to "<path>.metrics.json").
  const std::string trace_out = bench::trace_out_from_env();
  corpus::ScanOptions topts = opts;
  topts.wiretap_metrics = true;
  topts.wiretap_traces = !trace_out.empty();
  allocs0 = bench::heap_allocations();
  const auto tstart = Clock::now();
  const auto traced = corpus::scan_population(pop, topts);
  const double twall = ms_since(tstart);
  record("scan_epoch2_traced", twall, sites, sites / (twall / 1000.0),
         scan_allocs(bench::heap_allocations() - allocs0));
  std::printf("  (wiretap: %llu frames, %llu violations across %llu "
              "connections)\n",
              static_cast<unsigned long long>(traced.wire_metrics.total_frames()),
              static_cast<unsigned long long>(
                  traced.wire_metrics.total_violations()),
              static_cast<unsigned long long>(traced.wire_metrics.connections));
  if (!trace_out.empty()) {
    std::string jsonl;
    for (const auto& [host, lines] : traced.site_traces) jsonl += lines;
    bench::write_file_or_warn(trace_out, jsonl);
    bench::write_file_or_warn(trace_out + ".metrics.json",
                              traced.wire_metrics.to_json() + "\n");
  }

  // The chaos row: the same population over seeded FaultyTransports with
  // fresh-connection retries — the cost of scanning under adversarial
  // delivery, and a standing proof the faulted scan loop cannot hang
  // (deadline_hits must stay 0).
  corpus::ScanOptions fopts = opts;
  fopts.fault_injection = true;
  fopts.fault_seed = bench::fault_seed_from_env();
  allocs0 = bench::heap_allocations();
  const auto fstart = Clock::now();
  const auto faulted = corpus::scan_population(pop, fopts);
  const double fwall = ms_since(fstart);
  record("scan_epoch2_faulted", fwall, sites, sites / (fwall / 1000.0),
         scan_allocs(bench::heap_allocations() - allocs0));
  std::printf("  (outcomes: ok=%zu retried_ok=%zu truncated=%zu "
              "disconnected=%zu timed_out=%zu)\n",
              faulted.sites_ok, faulted.sites_retried_ok,
              faulted.sites_truncated, faulted.sites_disconnected,
              faulted.sites_timed_out);
  std::printf("  (%llu faults over %llu exchanges, %llu retries, "
              "deadline_hits=%llu)\n",
              static_cast<unsigned long long>(faulted.fault_injected),
              static_cast<unsigned long long>(faulted.fault_exchanges),
              static_cast<unsigned long long>(faulted.fault_retries),
              static_cast<unsigned long long>(faulted.fault_deadline_hits));
  if (faulted.fault_deadline_hits != 0) {
    std::fprintf(stderr, "!! faulted scan hit an exchange deadline — the "
                         "chaos loop is supposed to make that impossible\n");
  }

  // The allocation guard's row: the chaos scan of the 1/1000 subsample on
  // one worker whatever H2R_SCALE and H2R_THREADS say, so a smoke run and
  // the committed full-scale run count the same work. Allocations per site
  // are a property of the code, but a scan warms each worker's scratch
  // afresh, and a small scan spreads that over few sites.
  const auto small = corpus::generate_population(corpus::Epoch::kExp2,
                                                 bench::seed_from_env(), 1000);
  const double small_sites = static_cast<double>(small.sites.size());
  corpus::ScanOptions sopts = fopts;
  sopts.threads = 1;
  allocs0 = bench::heap_allocations();
  const auto sstart = Clock::now();
  (void)corpus::scan_population(small, sopts);
  const double swall = ms_since(sstart);
  record("scan_epoch2_faulted_1k", swall, small_sites,
         small_sites / (swall / 1000.0),
         static_cast<double>(bench::heap_allocations() - allocs0) /
             small_sites);
}

void write_json() {
  const char* path_env = std::getenv("H2R_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_scan_throughput.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("!! could not open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  bool first = true;
  for (const auto& [op, r] : g_results) {
    std::fprintf(f,
                 "%s  \"%s\": {\"wall_ms\": %.3f, \"per_op_ns\": %.2f, "
                 "\"throughput\": %.2f, \"allocs_per_op\": %.2f}",
                 first ? "" : ",\n", op.c_str(), r.wall_ms, r.per_op_ns,
                 r.throughput, r.allocs_per_op);
    first = false;
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main() {
  h2r::bench::print_banner("Scan throughput - request/response exchange + "
                           "end-to-end epoch-2 scan");
  const std::uint64_t seed = h2r::bench::seed_from_env();
  bench_exchange();
  bench_scan(seed);
  write_json();
  return 0;
}
