// Shared types of the serve + scan benchmark: the run arguments, one
// workload's outcome (checks + named metrics), and the clocks every
// workload reads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the span log is written at exit (created if missing).
  std::string out_dir = ".bench_build/out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. A failed check makes the run incorrect
/// and the process exit non-zero.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  [[nodiscard]] bool correct() const { return failures.empty(); }
  void fail(std::string why) { failures.push_back(std::move(why)); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Monotonic wall clock, seconds.
double wall_s();
/// CPU time of the whole process (user + sys, every thread), seconds.
double process_cpu_s();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mib();

/// Heap allocations made so far, process-wide (operator-new hook; stays 0
/// in binaries linked without alloc_hook.cc).
std::uint64_t heap_allocations();
/// Heap blocks allocated and not yet freed, process-wide.
std::int64_t live_heap_blocks();

/// One measured round of a workload's timed phase. Every rate a workload
/// reports is a median over its rounds.
struct Round {
  double ops = 0;  ///< requests completed (serve) or sites scanned (scans)
  double wall_s = 0;
  double process_cpu_s = 0;
  std::uint64_t allocs = 0;
  bool traced = false;  ///< span recording was on (traced runs only)
};

enum class Which { kAll, kTraced, kPlain };

/// Median over @p rounds of @p field: every round, traced rounds only, or
/// plain rounds only.
template <class R, class Field>
double median_over(const std::vector<R>& rounds, Field field,
                   Which which = Which::kAll) {
  std::vector<double> v;
  for (const R& r : rounds) {
    if ((which == Which::kTraced && !r.traced) ||
        (which == Which::kPlain && r.traced)) {
      continue;
    }
    v.push_back(field(r));
  }
  return median(v);
}

inline double ops_per_s(const Round& r) { return ratio(r.ops, r.wall_s); }

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 9;

/// How many set-ups are due once @p done (0..1) of the timed phase has
/// run: one before it and the others spread evenly across it, each on a
/// fresh instance torn down again, so setup_s samples the machine across
/// the whole run, as the rounds do.
inline std::size_t setups_due(double done) {
  return 1 + static_cast<std::size_t>(std::clamp(done, 0.0, 1.0) *
                                      static_cast<double>(kSetups - 1));
}

/// The end-to-end metrics every workload reports (--trace 0).
template <class R>
void add_end_to_end(Outcome& out, const std::vector<double>& setups,
                    const std::vector<R>& rounds) {
  out.add("setup_s", median(setups), "s");
  out.add("ops_per_s", median_over(rounds, ops_per_s), "1/s");
  out.add("cpu_us_per_op", median_over(rounds, [](const Round& r) {
            return ratio(r.process_cpu_s * 1e6, r.ops);
          }),
          "us");
  out.add("rss_mib", peak_rss_mib(), "MiB");
  out.add("allocs_per_op", median_over(rounds, [](const Round& r) {
            return ratio(static_cast<double>(r.allocs), r.ops);
          }),
          "count");
}

/// The traced run's span-recording cost: 1 - traced / plain ops_per_s.
template <class R>
double trace_overhead_frac(const std::vector<R>& rounds) {
  const double plain = median_over(rounds, ops_per_s, Which::kPlain);
  const double traced = median_over(rounds, ops_per_s, Which::kTraced);
  return ratio(plain - traced, plain);
}

Outcome run_serve(const RunArgs& args);
Outcome run_scan(const RunArgs& args);

}  // namespace perfbench
