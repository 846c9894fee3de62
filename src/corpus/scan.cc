#include "corpus/scan.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "corpus/site_task.h"

namespace h2r::corpus {

std::size_t ScanReport::hpack_sample_size() const {
  std::size_t n = 0;
  for (const auto& [family, ratios] : hpack_ratio_by_family) n += ratios.size();
  return n;
}

void ScanReport::merge(const ScanReport& other) {
  npn_sites += other.npn_sites;
  alpn_sites += other.alpn_sites;
  responding_sites += other.responding_sites;
  for (const auto& [name, count] : other.server_counts) {
    server_counts[name] += count;
  }
  for (const auto& [v, c] : other.initial_window_size.counts()) {
    initial_window_size.add(v, c);
  }
  for (const auto& [v, c] : other.max_frame_size.counts()) {
    max_frame_size.add(v, c);
  }
  for (const auto& [v, c] : other.max_header_list_size.counts()) {
    max_header_list_size.add(v, c);
  }
  for (const auto& [v, c] : other.max_concurrent_streams.counts()) {
    max_concurrent_streams.add(v, c);
  }
  sframe_respecting += other.sframe_respecting;
  sframe_zero_length += other.sframe_zero_length;
  sframe_no_response += other.sframe_no_response;
  sframe_no_response_litespeed += other.sframe_no_response_litespeed;
  zero_window_headers_ok += other.zero_window_headers_ok;
  zero_wu_rst += other.zero_wu_rst;
  zero_wu_ignore += other.zero_wu_ignore;
  zero_wu_goaway += other.zero_wu_goaway;
  zero_wu_goaway_debug += other.zero_wu_goaway_debug;
  zero_wu_conn_error += other.zero_wu_conn_error;
  large_wu_conn_goaway += other.large_wu_conn_goaway;
  large_wu_stream_rst += other.large_wu_stream_rst;
  large_wu_stream_ignore += other.large_wu_stream_ignore;
  priority_pass_last += other.priority_pass_last;
  priority_pass_first += other.priority_pass_first;
  priority_pass_both += other.priority_pass_both;
  self_dep_rst += other.self_dep_rst;
  self_dep_goaway += other.self_dep_goaway;
  self_dep_ignore += other.self_dep_ignore;
  push_hosts.insert(push_hosts.end(), other.push_hosts.begin(),
                    other.push_hosts.end());
  for (const auto& [family, ratios] : other.hpack_ratio_by_family) {
    auto& dst = hpack_ratio_by_family[family];
    dst.insert(dst.end(), ratios.begin(), ratios.end());
  }
  hpack_filtered_out += other.hpack_filtered_out;
  sites_ok += other.sites_ok;
  sites_retried_ok += other.sites_retried_ok;
  sites_truncated += other.sites_truncated;
  sites_disconnected += other.sites_disconnected;
  sites_timed_out += other.sites_timed_out;
  fault_exchanges += other.fault_exchanges;
  fault_injected += other.fault_injected;
  fault_retries += other.fault_retries;
  fault_deadline_hits += other.fault_deadline_hits;
  fault_backoff_ms += other.fault_backoff_ms;
  wire_metrics.merge(other.wire_metrics);
  for (const auto& [family, metrics] : other.wire_metrics_by_family) {
    wire_metrics_by_family[family].merge(metrics);
  }
  attack_detections.merge(other.attack_detections);
  // Each site appears exactly once across all workers, so inserting the
  // per-site traces into the ordered map reassembles the same final
  // contents for any H2R_THREADS.
  for (const auto& [host, jsonl] : other.site_traces) {
    site_traces.emplace(host, jsonl);
  }
}

ScanReport scan_population(const Population& population,
                           const ScanOptions& options) {
  int threads = options.threads > 0
                    ? options.threads
                    : static_cast<int>(std::max(
                          1u, std::thread::hardware_concurrency()));
  // No point spinning up more workers than there are sites to pull.
  threads = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(threads),
      std::max<std::size_t>(1, population.sites.size())));

  const std::size_t n = population.sites.size();
  std::vector<ScanReport> partials(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  std::atomic<std::size_t> cursor{0};

  // Each worker pulls the next unscanned site and runs it to completion;
  // its partial report is the only state it writes, so the merge below is
  // the only join point.
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      SiteScratch scratch;
      ScanReport& r = partials[static_cast<std::size_t>(t)];
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= n) break;
        scan_site(population.sites[i], options, r, scratch);
        r.wire_metrics.reactor_peak_in_flight = 1;  // one site at a time
      }
    });
  }
  for (auto& th : pool) th.join();

  ScanReport total;
  total.epoch = population.epoch;
  total.total_scanned = population.total_scanned;
  for (const auto& p : partials) total.merge(p);
  // Sites fold wiretap metrics into their family registry only; the global
  // snapshot is assembled here with one merge per family instead of two
  // registry merges per site. Field-wise sums make the result identical.
  for (const auto& [family, metrics] : total.wire_metrics_by_family) {
    total.wire_metrics.merge(metrics);
  }
  total.distinct_server_kinds = total.server_counts.size();
  std::sort(total.push_hosts.begin(), total.push_hosts.end());
  // Which worker saw which site depends on scheduling; sorting the ratio
  // samples makes the report bitwise independent of the thread count (all
  // consumers — CDFs, quantiles, fractions — are order-agnostic anyway).
  for (auto& [family, ratios] : total.hpack_ratio_by_family) {
    std::sort(ratios.begin(), ratios.end());
  }
  return total;
}

}  // namespace h2r::corpus
