// perfbench: one workload of the serve + scan benchmark per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Workloads: serve_keepalive, serve_churn, scan_clean, scan_faulted (see
// NOTES.md). With --trace 0 the last stdout line carries the end-to-end
// metrics, with --trace 1 the per-layer ones; both as
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every output check passed.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "bench.h"
#include "spans.h"
#include "stats.h"
#include "util/parse.h"

namespace {

using perfbench::Metric;
using perfbench::Outcome;

struct Declared {
  const char* name;
  const char* unit;
};

constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"},
    {"cpu_us_per_op", "us"}, {"rss_mib", "MiB"},
    {"allocs_per_op", "count"},
};

/// Every per-layer metric, on every workload. A layer a workload does not
/// run reports 0 (no work done there).
constexpr Declared kPerLayer[] = {
    {"netio.server_cpu_us_per_req", "us"},
    {"netio.client_cpu_us_per_req", "us"},
    {"netio.server_wakeups_per_req", "count"},
    {"netio.server_busy_frac", "ratio"},
    {"netio.lat_p50_ms", "ms"},
    {"netio.lat_p99_ms", "ms"},
    {"netio.lat_p999_ms", "ms"},
    {"netio.lat_samples", "count"},
    {"netio.rounds_per_req", "count"},
    {"netio.bytes_in_per_req", "B"},
    {"netio.bytes_out_per_req", "B"},
    {"netio.conns_per_s", "1/s"},
    {"netio.unclean_closes", "count"},
    {"netio.drive_us_per_req", "us"},
    {"netio.self_us_per_req", "us"},
    {"netio.accounted_frac", "ratio"},
    {"server.engine_us_per_req", "us"},
    {"server.engine_us_per_req_first1k", "us"},
    {"server.engine_us_per_req_last1k", "us"},
    {"server.allocs_per_req", "count"},
    {"server.retained_blocks_per_req", "count"},
    {"server.streams_per_req", "count"},
    {"server.header_cache_hit_ratio", "ratio"},
    {"hpack.encode_ns_per_block", "ns"},
    {"hpack.decode_ns_per_block", "ns"},
    {"hpack.blocks_per_op", "count"},
    {"h2.parse_ns_per_frame", "ns"},
    {"h2.serialize_ns_per_frame", "ns"},
    {"h2.frames_per_op", "count"},
    {"trace.records_per_op", "count"},
    {"trace.record_ns_per_record", "ns"},
    {"trace.drops", "count"},
    {"trace.fold_us_per_site", "us"},
    {"trace.overhead_frac", "ratio"},
    {"core.probe_us_per_site.negotiation", "us"},
    {"core.probe_us_per_site.settings", "us"},
    {"core.probe_us_per_site.flow_control", "us"},
    {"core.probe_us_per_site.priority", "us"},
    {"core.probe_us_per_site.push", "us"},
    {"core.probe_us_per_site.hpack", "us"},
    {"core.conns_per_site", "count"},
    {"core.allocs_per_site", "count"},
    {"net.exchanges_per_site", "count"},
    {"net.retries_per_site", "count"},
    {"net.fault_injected_frac", "ratio"},
    {"net.useful_exchange_frac", "ratio"},
    {"corpus.parks_per_site", "count"},
    {"corpus.peak_in_flight", "count"},
    {"corpus.driver_us_per_site", "us"},
    {"corpus.gen_ms", "ms"},
};

const std::set<std::string> kWorkloads = {"serve_keepalive", "serve_churn",
                                          "scan_clean", "scan_faulted"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_keepalive|serve_churn|scan_clean|scan_faulted --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

/// The metrics this run must print, in declaration order: missing per-layer
/// ones are filled with 0, a missing end-to-end one is an error.
bool canonical(bool trace, std::vector<Metric>& metrics, std::string& error) {
  std::vector<Metric> out;
  const auto find = [&](const char* name) -> const Metric* {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  if (trace) {
    for (const Declared& d : kPerLayer) {
      const Metric* m = find(d.name);
      out.push_back({d.name, m != nullptr ? m->value : 0.0, d.unit});
    }
  } else {
    for (const Declared& d : kEndToEnd) {
      const Metric* m = find(d.name);
      if (m == nullptr) {
        error = std::string("missing end-to-end metric ") + d.name;
        return false;
      }
      out.push_back({d.name, m->value, d.unit});
    }
  }
  metrics = std::move(out);
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = kWorkloads.count(args.workload) != 0;
      if (!have_workload) return usage("unknown workload");
    } else if (flag == "--seed") {
      const auto v = h2r::strict_long(value);
      if (!v || *v < 0) return usage("--seed must be a non-negative integer");
      args.seed = static_cast<std::uint64_t>(*v);
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto v = h2r::strict_double(value);
      if (!v || *v <= 0 || *v > 600) return usage("--seconds out of range");
      args.seconds = *v;
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") return usage("--trace must be 0 or 1");
      args.trace = t == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::spans().set_enabled(args.trace);
  Outcome out;
  try {
    out = args.workload.rfind("serve_", 0) == 0 ? perfbench::run_serve(args)
                                                : perfbench::run_scan(args);
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
  }
  std::string error;
  if (out.correct() && !canonical(args.trace, out.metrics, error)) {
    out.fail(error);
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }

  if (args.trace) {
    // Where the traced run's time went, span by span.
    std::printf("%-34s %10s %14s %14s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& [name, t] : perfbench::spans().totals()) {
      std::printf("%-34s %10llu %14.3f %14.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                  t.self_ns / 1e6);
    }
    ::mkdir(args.out_dir.c_str(), 0755);  // may already exist
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (perfbench::spans().write_jsonl(path)) {
      std::printf("spans: %zu written to %s\n", perfbench::spans().size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }

  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", args.workload.c_str(),
                 f.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!args.trace) {
    // Not a gated metric: any failure already fails the run's checks.
    std::printf("%-40s %16.6f %s (%llu of %llu ops failed)\n", "fail_frac",
                perfbench::fail_frac(out.attempted, out.failed), "ratio",
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
  }
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += first ? "" : ", ";
    line += "\"" + json_escape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
