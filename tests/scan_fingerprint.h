// Test helper: a byte-exact rendering of every aggregate field of a
// ScanReport, with doubles as hexfloats so "identical" means bitwise, not
// approximately. Shared by the thread-count determinism tests and the
// scan tests that compare two runs of one population.
#pragma once

#include <sstream>
#include <string>

#include "corpus/scan.h"

namespace h2r::corpus {

inline std::string fingerprint(const ScanReport& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "epoch=" << static_cast<int>(r.epoch)
      << " total_scanned=" << r.total_scanned << "\n";
  out << "npn=" << r.npn_sites << " alpn=" << r.alpn_sites
      << " responding=" << r.responding_sites << "\n";
  out << "server_kinds=" << r.distinct_server_kinds << "\n";
  for (const auto& [name, count] : r.server_counts) {
    out << "server[" << name << "]=" << count << "\n";
  }
  const auto counter = [&out](const char* label, const ValueCounter& c) {
    for (const auto& [value, count] : c.counts()) {
      out << label << "[" << value << "]=" << count << "\n";
    }
  };
  counter("iws", r.initial_window_size);
  counter("mfs", r.max_frame_size);
  counter("mhls", r.max_header_list_size);
  counter("mcs", r.max_concurrent_streams);
  out << "sframe=" << r.sframe_respecting << "," << r.sframe_zero_length
      << "," << r.sframe_no_response << ","
      << r.sframe_no_response_litespeed << "\n";
  out << "zero_window_headers_ok=" << r.zero_window_headers_ok << "\n";
  out << "zero_wu=" << r.zero_wu_rst << "," << r.zero_wu_ignore << ","
      << r.zero_wu_goaway << "," << r.zero_wu_goaway_debug << ","
      << r.zero_wu_conn_error << "\n";
  out << "large_wu=" << r.large_wu_conn_goaway << "," << r.large_wu_stream_rst
      << "," << r.large_wu_stream_ignore << "\n";
  out << "priority=" << r.priority_pass_last << "," << r.priority_pass_first
      << "," << r.priority_pass_both << "\n";
  out << "self_dep=" << r.self_dep_rst << "," << r.self_dep_goaway << ","
      << r.self_dep_ignore << "\n";
  for (const auto& host : r.push_hosts) out << "push=" << host << "\n";
  for (const auto& [family, ratios] : r.hpack_ratio_by_family) {
    out << "hpack[" << family << "]=";
    for (double ratio : ratios) out << ratio << ";";
    out << "\n";
  }
  out << "hpack_filtered_out=" << r.hpack_filtered_out << "\n";
  out << "outcomes=" << r.sites_ok << "," << r.sites_retried_ok << ","
      << r.sites_truncated << "," << r.sites_disconnected << ","
      << r.sites_timed_out << "\n";
  out << "faults=" << r.fault_exchanges << "," << r.fault_injected << ","
      << r.fault_retries << "," << r.fault_deadline_hits << ","
      << r.fault_backoff_ms << "\n";
  return out.str();
}

}  // namespace h2r::corpus
