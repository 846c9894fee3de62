// Scan-throughput harness: the perf trajectory for the whole reproduction.
//
// Times the hot wire-stack micro-ops (Huffman coding, HPACK table lookup,
// full header-block encode/decode, frame serialize/parse) and one complete
// epoch-2 scan, then prints sites/sec + MB/sec and writes the results to a
// machine-readable JSON file so later PRs can regress against this run.
//
// JSON schema: { "<op>": {"wall_ms": w, "per_op_ns": n, "throughput": t} }
// where throughput is MB/sec for byte-oriented ops, ops/sec for lookups and
// sites/sec for the end-to-end scan; the exchange_* and scan rows
// additionally carry "allocs_per_op" (heap allocations per conversation or
// site, via the operator-new hook in bench_util.h). Output path defaults to
// BENCH_scan_throughput.json in the working directory; override with
// H2R_BENCH_JSON. H2R_SCALE / H2R_SEED / H2R_THREADS apply as in every
// other bench, except that scan_epoch2_faulted_1k always scans the 1/1000
// subsample on one worker. H2R_TRACE_OUT=<path> additionally dumps the
// traced scan's H2Wiretap JSONL to <path> and its metrics snapshot to
// <path>.metrics.json. H2R_FAULT_SEED reseeds the scan_epoch2_faulted chaos
// row's fault schedules.
#include <chrono>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#define H2R_BENCH_COUNT_ALLOCS 1
#include "bench/bench_util.h"
#include "core/probes.h"
#include "net/transport.h"
#include "h2/frame.h"
#include "h2/frame_codec.h"
#include "hpack/decoder.h"
#include "hpack/encoder.h"
#include "hpack/huffman.h"
#include "hpack/table.h"
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
  double throughput = 0;  ///< MB/sec, ops/sec or sites/sec depending on op
  double allocs_per_op = -1;  ///< heap allocations per op; -1 = not measured
};

std::map<std::string, OpResult> g_results;

void record(const std::string& op, double wall_ms, double ops,
            double throughput, double allocs_per_op = -1) {
  g_results[op] = {wall_ms, ops > 0 ? wall_ms * 1e6 / ops : 0.0, throughput,
                   allocs_per_op};
  std::printf("%-24s %10.1f ms   %10.1f ns/op   %12.1f /s", op.c_str(),
              wall_ms, g_results[op].per_op_ns, throughput);
  if (allocs_per_op >= 0) std::printf("   %8.1f allocs/op", allocs_per_op);
  std::printf("\n");
}

/// Header values typical of the corpus responses — what the scan's HPACK
/// layers chew through (mix of indexable, literal and Huffman-friendly).
std::vector<h2r::hpack::HeaderList> sample_header_lists() {
  using h2r::hpack::HeaderList;
  std::vector<HeaderList> lists;
  lists.push_back({{":status", "200"},
                   {"server", "nginx"},
                   {"date", "Tue, 21 Mar 2017 12:00:00 GMT"},
                   {"content-type", "text/html; charset=utf-8"},
                   {"content-length", "154234"},
                   {"cache-control", "max-age=3600, public"}});
  lists.push_back({{":status", "200"},
                   {"server", "gse"},
                   {"content-type", "application/javascript"},
                   {"x-xss-protection", "1; mode=block"},
                   {"x-frame-options", "SAMEORIGIN"},
                   {"alt-svc", "quic=\":443\"; ma=2592000; v=\"36,35,34\""}});
  lists.push_back({{":status", "304"},
                   {"server", "LiteSpeed"},
                   {"etag", "\"5a3-54b1f0a8e6d80\""},
                   {"vary", "accept-encoding"},
                   {"accept-ranges", "bytes"}});
  lists.push_back({{":status", "404"},
                   {"server", "tengine"},
                   {"content-type", "text/plain"},
                   {"set-cookie",
                    "session=f00ba4b4adf00d; path=/; HttpOnly; Secure"}});
  return lists;
}

void bench_huffman(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  // Realistic header-text alphabet: mostly lowercase/digits/punctuation,
  // which is where the Huffman table actually spends its short codes.
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789-_.:;=/ \"ABCDEFXYZ%";
  std::vector<h2r::Bytes> encoded;
  std::size_t plain_octets = 0;
  for (int i = 0; i < 64; ++i) {
    std::string s;
    const std::size_t len = 8 + rng() % 120;
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(alphabet[rng() % alphabet.size()]);
    }
    plain_octets += s.size();
    h2r::ByteWriter w;
    h2r::hpack::huffman_encode(w, s);
    encoded.push_back(w.take());
  }

  constexpr int kIters = 20000;
  std::size_t decoded_octets = 0;
  const auto start = Clock::now();
  for (int it = 0; it < kIters; ++it) {
    for (const auto& e : encoded) {
      auto r = h2r::hpack::huffman_decode(e);
      decoded_octets += r.value().size();
    }
  }
  const double wall = ms_since(start);
  const double ops = static_cast<double>(kIters) * encoded.size();
  const double mb =
      static_cast<double>(kIters) * plain_octets / (1024.0 * 1024.0);
  record("huffman_decode", wall, ops, mb / (wall / 1000.0));

  const auto estart = Clock::now();
  std::size_t out_octets = 0;
  std::string plain(512, 'x');
  for (std::size_t j = 0; j < plain.size(); ++j) {
    plain[j] = alphabet[rng() % alphabet.size()];
  }
  for (int it = 0; it < kIters * 4; ++it) {
    h2r::ByteWriter w;
    h2r::hpack::huffman_encode(w, plain);
    out_octets += w.size();
  }
  const double ewall = ms_since(estart);
  const double emb = static_cast<double>(kIters) * 4 * plain.size() /
                     (1024.0 * 1024.0);
  record("huffman_encode", ewall, kIters * 4.0, emb / (ewall / 1000.0));
  (void)decoded_octets;
  (void)out_octets;
}

void bench_hpack_lookup() {
  using h2r::hpack::HeaderField;
  h2r::hpack::IndexTable table;
  // A dynamic table mid-scan: a few dozen cookie/date/etag style entries.
  for (int i = 0; i < 48; ++i) {
    table.insert({"x-custom-header-" + std::to_string(i % 16),
                  "value-" + std::to_string(i)});
  }
  std::vector<HeaderField> queries = {
      {":status", "200"},                         // static full match
      {":method", "GET"},                         // static full match
      {"content-type", "text/html"},              // static name match
      {"x-custom-header-3", "value-35"},          // dynamic full match
      {"x-custom-header-9", "no-such-value"},     // dynamic name match
      {"x-entirely-absent", "nothing"},           // total miss
  };
  constexpr int kIters = 200000;
  std::uint64_t acc = 0;
  const auto start = Clock::now();
  for (int it = 0; it < kIters; ++it) {
    for (const auto& q : queries) {
      const auto m = table.find(q);
      acc += m.index + (m.value_matched ? 1 : 0);
    }
  }
  const double wall = ms_since(start);
  const double ops = static_cast<double>(kIters) * queries.size();
  record("hpack_lookup", wall, ops, ops / (wall / 1000.0));
  if (acc == 0) std::printf("(impossible)\n");
}

void bench_hpack_blocks() {
  const auto lists = sample_header_lists();
  constexpr int kIters = 50000;

  h2r::hpack::Encoder sizer(
      {.policy = h2r::hpack::IndexingPolicy::kAggressive, .use_huffman = true});
  std::size_t block_octets = 0;
  for (const auto& l : lists) block_octets += sizer.encode(l).size();

  const auto estart = Clock::now();
  {
    h2r::hpack::Encoder enc({.policy = h2r::hpack::IndexingPolicy::kAggressive,
                             .use_huffman = true});
    for (int it = 0; it < kIters; ++it) {
      for (const auto& l : lists) {
        const auto b = enc.encode(l);
        block_octets += b.empty() ? 1 : 0;
      }
    }
  }
  const double ewall = ms_since(estart);
  record("hpack_encode_block", ewall,
         static_cast<double>(kIters) * lists.size(),
         static_cast<double>(kIters) * lists.size() / (ewall / 1000.0));

  // Pre-encode one instruction stream, then replay it through fresh
  // decoders (table state must match the encoder's at each block).
  h2r::hpack::Encoder enc({.policy = h2r::hpack::IndexingPolicy::kAggressive,
                           .use_huffman = true});
  std::vector<h2r::Bytes> blocks;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& l : lists) blocks.push_back(enc.encode(l));
  }
  const auto dstart = Clock::now();
  constexpr int kDecIters = 20000;
  std::size_t fields = 0;
  for (int it = 0; it < kDecIters; ++it) {
    h2r::hpack::Decoder dec;
    for (const auto& b : blocks) {
      auto r = dec.decode(b);
      fields += r.value().size();
    }
  }
  const double dwall = ms_since(dstart);
  record("hpack_decode_block", dwall,
         static_cast<double>(kDecIters) * blocks.size(),
         static_cast<double>(kDecIters) * blocks.size() / (dwall / 1000.0));
  (void)fields;
}

void bench_framing() {
  using namespace h2r;
  std::vector<h2::Frame> frames;
  frames.push_back(h2::make_settings(
      {{h2::SettingId::kInitialWindowSize, 65535},
       {h2::SettingId::kMaxConcurrentStreams, 100}}));
  frames.push_back(h2::make_headers(1, Bytes(64, 0x42), false, true));
  frames.push_back(h2::make_data(1, Bytes(1024, 0x55), false));
  frames.push_back(h2::make_data(1, Bytes(8192, 0x66), true));
  frames.push_back(h2::make_window_update(0, 65535));
  frames.push_back(h2::make_ping({1, 2, 3, 4, 5, 6, 7, 8}, false));

  constexpr int kIters = 50000;
  const Bytes once = h2::serialize_frames(frames);
  const auto sstart = Clock::now();
  std::size_t octets = 0;
  for (int it = 0; it < kIters; ++it) {
    octets += h2::serialize_frames(frames).size();
  }
  const double swall = ms_since(sstart);
  const double smb = static_cast<double>(octets) / (1024.0 * 1024.0);
  record("frame_serialize", swall,
         static_cast<double>(kIters) * frames.size(), smb / (swall / 1000.0));

  const auto pstart = Clock::now();
  std::size_t parsed = 0;
  for (int it = 0; it < kIters; ++it) {
    h2::FrameParser parser(h2::kMaxAllowedFrameSize);
    parser.feed(once);
    while (auto f = parser.next()) parsed += f->ok() ? 1 : 0;
  }
  const double pwall = ms_since(pstart);
  const double pmb = static_cast<double>(kIters) * once.size() /
                     (1024.0 * 1024.0);
  record("frame_parse", pwall, static_cast<double>(parsed),
         pmb / (pwall / 1000.0));
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
                 "\"throughput\": %.2f",
                 first ? "" : ",\n", op.c_str(), r.wall_ms, r.per_op_ns,
                 r.throughput);
    if (r.allocs_per_op >= 0) {
      std::fprintf(f, ", \"allocs_per_op\": %.2f", r.allocs_per_op);
    }
    std::fprintf(f, "}");
    first = false;
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main() {
  h2r::bench::print_banner("Scan throughput - wire-stack micro-ops + "
                           "end-to-end epoch-2 scan");
  const std::uint64_t seed = h2r::bench::seed_from_env();
  bench_huffman(seed);
  bench_hpack_lookup();
  bench_hpack_blocks();
  bench_framing();
  bench_exchange();
  bench_scan(seed);
  write_json();
  return 0;
}
