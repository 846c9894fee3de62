// Large-scale scan driver: runs the Section III probe suite over a whole
// synthetic population (the paper's H2Scope uses a thread pool the same
// way, Section IV-B) and aggregates the observations into exactly the
// quantities the paper's tables and figures report. Each worker pulls the
// next unscanned site and runs it to completion (corpus/site_task.h); the
// report is bitwise identical for any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/probes.h"
#include "corpus/population.h"
#include "trace/detector.h"
#include "trace/metrics.h"
#include "util/stats.h"

namespace h2r::corpus {

struct ScanOptions {
  int threads = 0;        ///< 0 = hardware concurrency
  int hpack_h = 8;        ///< requests per site for Equation 1
  bool probe_settings = true;
  bool probe_flow_control = true;
  bool probe_priority = true;
  bool probe_push = true;
  bool probe_hpack = true;
  /// Inert: selects nothing, since every probe runs on a connection of
  /// its own. perfbench/ (frozen) still assigns it.
  bool coalesce = true;
  /// Inert: selects nothing. perfbench/ (frozen) still assigns it.
  bool event_loop = true;
  std::uint64_t seed = 7;
  /// H2Wiretap: fold the frames of every probe connection (one per probe)
  /// into the report's wire_metrics (and per-family shards). Off by
  /// default — the null sink keeps the hot path free of tracing cost.
  bool wiretap_metrics = false;
  /// Additionally keep the annotated per-site JSONL traces (implies the
  /// recording wiretap_metrics needs; memory-heavy at full population
  /// scale, intended for small scans and debugging).
  bool wiretap_traces = false;
  /// Run every probe connection over a net::FaultyTransport instead of the
  /// perfect lockstep pump. Off by default: the plain scan stays
  /// bit-identical to the historical one.
  bool fault_injection = false;
  /// Base seed for fault schedules. Each site derives its own stream from
  /// (fault_seed, host), so schedules are independent of H2R_THREADS and of
  /// scan order. Override with H2R_FAULT_SEED in the benches.
  std::uint64_t fault_seed = 0xFA017ull;
  /// Scan-wide floor on the per-connection fault probability; each site's
  /// PathModel::loss_rate raises its own probability above this.
  double fault_floor = 0.2;
  /// Fresh-connection retry for faulted probes.
  core::RetryPolicy retry;
  /// Run the trace::SequenceDetector over every probe connection and fold
  /// the per-site reports into ScanReport::attack_detections. On a benign
  /// scan (this whole probe battery) the expected detection count is zero —
  /// the detector's false-positive bar, pinned by tests/detector_test.cc.
  /// Like the wiretap, detection is per *connection*: each probe's
  /// connection is observed on its own.
  bool detect_attacks = false;
  trace::DetectorThresholds detector_thresholds;
};

/// Everything a full scan learns, pre-aggregated.
struct ScanReport {
  Epoch epoch{};
  std::size_t total_scanned = 0;

  // §V-B adoption.
  std::size_t npn_sites = 0;
  std::size_t alpn_sites = 0;
  std::size_t responding_sites = 0;

  // Table IV (full census; benches filter to >1,000).
  std::map<std::string, std::size_t> server_counts;
  std::size_t distinct_server_kinds = 0;

  // Tables V-VII + Fig 2. kNullValue keys mark empty-SETTINGS sites,
  // kUnlimitedValue marks parameter-absent-but-SETTINGS-present.
  ValueCounter initial_window_size;
  ValueCounter max_frame_size;
  ValueCounter max_header_list_size;
  ValueCounter max_concurrent_streams;

  // §V-D flow control.
  std::size_t sframe_respecting = 0;
  std::size_t sframe_zero_length = 0;
  std::size_t sframe_no_response = 0;
  std::size_t sframe_no_response_litespeed = 0;
  std::size_t zero_window_headers_ok = 0;
  std::size_t zero_wu_rst = 0;
  std::size_t zero_wu_ignore = 0;
  std::size_t zero_wu_goaway = 0;
  std::size_t zero_wu_goaway_debug = 0;
  std::size_t zero_wu_conn_error = 0;
  std::size_t large_wu_conn_goaway = 0;
  std::size_t large_wu_stream_rst = 0;
  std::size_t large_wu_stream_ignore = 0;

  // §V-E priority.
  std::size_t priority_pass_last = 0;
  std::size_t priority_pass_first = 0;
  std::size_t priority_pass_both = 0;
  std::size_t self_dep_rst = 0;
  std::size_t self_dep_goaway = 0;
  std::size_t self_dep_ignore = 0;

  // §V-F push.
  std::vector<std::string> push_hosts;

  // §V-G / Figures 4-5: per-family compression ratios (r <= 1 retained,
  // r > 1 filtered, as the paper does).
  std::map<std::string, std::vector<double>> hpack_ratio_by_family;
  std::size_t hpack_filtered_out = 0;  ///< sites with r > 1

  // H2Wiretap (populated when ScanOptions::wiretap_metrics is set): frame
  // and violation metrics across every probe connection of the scan, plus
  // the same broken out per server family. All counters are sums and the
  // maps are ordered, so the merge is bitwise independent of H2R_THREADS.
  trace::MetricsRegistry wire_metrics;
  std::map<std::string, trace::MetricsRegistry> wire_metrics_by_family;
  /// host -> annotated JSONL trace (when ScanOptions::wiretap_traces).
  std::map<std::string, std::string> site_traces;

  /// Sequence-detector aggregate over every probe connection (populated
  /// when ScanOptions::detect_attacks; all-zero flags on a benign scan).
  trace::DetectorReport attack_detections;

  // Per-site scan outcome, from the final (post-retry) attempt of each
  // site's probe sequence. Every site lands in exactly one class, so the
  // five counters always sum to total h2-offering sites scanned. On a
  // lockstep scan everything is sites_ok.
  std::size_t sites_ok = 0;            ///< clean first attempt
  std::size_t sites_retried_ok = 0;    ///< clean only after >= 1 retry
  std::size_t sites_truncated = 0;     ///< final attempt cut or corrupted
  std::size_t sites_disconnected = 0;  ///< final attempt lost the connection
  std::size_t sites_timed_out = 0;     ///< final attempt hit a deadline
  // Transport-level totals over every connection of the scan (faulted runs
  // only; all zero on a lockstep scan).
  std::uint64_t fault_exchanges = 0;      ///< exchanges run
  std::uint64_t fault_injected = 0;       ///< exchanges with a fired fault
  std::uint64_t fault_retries = 0;        ///< probe re-runs taken
  std::uint64_t fault_deadline_hits = 0;  ///< round/byte caps hit (hangs)
  double fault_backoff_ms = 0;            ///< simulated backoff spent

  /// Sites making up the Figures 4/5 sample (sum over families).
  [[nodiscard]] std::size_t hpack_sample_size() const;

  /// Folds @p other into this report: counters add, ordered maps and
  /// vectors concatenate. Epoch and total_scanned are scan-wide facts, not
  /// merged. Each worker's partial report covers a disjoint site subset,
  /// so merging in any grouping yields the same totals.
  void merge(const ScanReport& other);
};

/// Scans @p population with the probes selected in @p options.
ScanReport scan_population(const Population& population,
                           const ScanOptions& options = {});

}  // namespace h2r::corpus
