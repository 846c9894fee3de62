// Shared plumbing for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper and
// prints it side by side with the published numbers. `H2R_SCALE` (env)
// subsamples the corpus 1/N for quick runs; the default is the paper's full
// population. `H2R_SEED` overrides the corpus seed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "corpus/marginals.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "util/parse.h"
#include "util/stats.h"

namespace h2r::bench {

/// True when @p s parsed fully as a number; otherwise warns on stderr and
/// leaves the caller's default in place. atof/atoi would silently read
/// "2x10" as 2 and "abc" as 0 — a typo'd env var must not quietly reshape
/// a bench run.
inline bool parse_env_double(const char* name, const char* s, double& out) {
  const auto v = strict_double(s);
  if (!v.has_value()) {
    std::fprintf(stderr, "!! %s=\"%s\" is not a number; ignoring\n", name, s);
    return false;
  }
  out = *v;
  return true;
}

inline bool parse_env_long(const char* name, const char* s, long& out) {
  const auto v = strict_long(s);
  if (!v.has_value()) {
    std::fprintf(stderr, "!! %s=\"%s\" is not an integer; ignoring\n", name, s);
    return false;
  }
  out = *v;
  return true;
}

inline double scale_from_env() {
  const char* s = std::getenv("H2R_SCALE");
  if (s == nullptr) return 1.0;
  double v = 0.0;
  if (!parse_env_double("H2R_SCALE", s, v)) return 1.0;
  if (v < 1.0) {
    std::fprintf(stderr, "!! H2R_SCALE=%s below 1; using 1 (full corpus)\n", s);
    return 1.0;
  }
  return v;
}

inline std::uint64_t seed_from_env() {
  const char* s = std::getenv("H2R_SEED");
  if (s == nullptr) return 42ull;
  long v = 0;
  if (!parse_env_long("H2R_SEED", s, v) || v < 0) {
    if (v < 0) std::fprintf(stderr, "!! H2R_SEED=%s negative; using 42\n", s);
    return 42ull;
  }
  return static_cast<std::uint64_t>(v);
}

/// Worker-pool width for scans; 0 keeps ScanOptions' hardware default.
/// `H2R_THREADS` pins it so runs are reproducible across machines with
/// different core counts.
inline int threads_from_env() {
  const char* s = std::getenv("H2R_THREADS");
  if (s == nullptr) return 0;
  long v = 0;
  if (!parse_env_long("H2R_THREADS", s, v)) return 0;
  if (v <= 0 || v > 4096) {
    std::fprintf(stderr,
                 "!! H2R_THREADS=%s out of range [1, 4096]; using hardware "
                 "concurrency\n",
                 s);
    return 0;
  }
  return static_cast<int>(v);
}

/// `H2R_FAULT_SEED`: base seed for chaos-scan fault schedules. Defaults to
/// ScanOptions' own default so every machine reproduces the same faults;
/// override to explore a different chaos universe.
inline std::uint64_t fault_seed_from_env() {
  const char* s = std::getenv("H2R_FAULT_SEED");
  if (s == nullptr) return corpus::ScanOptions{}.fault_seed;
  long v = 0;
  if (!parse_env_long("H2R_FAULT_SEED", s, v) || v < 0) {
    if (v < 0) {
      std::fprintf(stderr, "!! H2R_FAULT_SEED=%s negative; using default\n", s);
    }
    return corpus::ScanOptions{}.fault_seed;
  }
  return static_cast<std::uint64_t>(v);
}

/// `H2R_TRACE_OUT=<path>`: where trace-capable benches dump the H2Wiretap
/// JSONL trace (a sibling "<path>.metrics.json" gets the metrics snapshot).
/// Empty string = tracing stays off.
inline std::string trace_out_from_env() {
  const char* s = std::getenv("H2R_TRACE_OUT");
  return s == nullptr ? std::string() : std::string(s);
}

/// Writes @p contents to @p path, warning (not aborting) on failure — a bad
/// trace path must not kill a long bench run.
inline void write_file_or_warn(const std::string& path,
                               const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "!! could not open %s for writing\n", path.c_str());
    return;
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), contents.size());
}

/// ScanOptions seeded from the environment (H2R_THREADS); benches start
/// from this instead of a default-constructed ScanOptions.
inline corpus::ScanOptions scan_options() {
  corpus::ScanOptions opts;
  opts.threads = threads_from_env();
  return opts;
}

inline void print_banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  const double scale = scale_from_env();
  if (scale > 1.0) {
    std::printf("(corpus subsampled 1/%.0f via H2R_SCALE; counts below are "
                "scaled back up for comparison)\n",
                scale);
  }
  std::printf("================================================================\n");
}

/// Scales a scanned count back up to full-population units for display.
inline std::uint64_t upscaled(std::size_t count) {
  return static_cast<std::uint64_t>(static_cast<double>(count) *
                                    scale_from_env() + 0.5);
}

/// "12,345 (paper: 12,337)" cell helper.
inline std::string vs_paper(std::size_t measured, std::size_t paper) {
  return with_commas(upscaled(measured)) + "  (paper: " + with_commas(paper) +
         ")";
}

inline corpus::Population population_for(corpus::Epoch epoch) {
  return corpus::generate_population(epoch, seed_from_env(), scale_from_env());
}

}  // namespace h2r::bench
