#include "digest.h"

#include <sstream>

namespace perfbench {

std::string report_fingerprint(const h2r::corpus::ScanReport& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "epoch=" << static_cast<int>(r.epoch)
      << " total_scanned=" << r.total_scanned << "\n";
  out << "npn=" << r.npn_sites << " alpn=" << r.alpn_sites
      << " responding=" << r.responding_sites
      << " kinds=" << r.distinct_server_kinds << "\n";
  for (const auto& [name, count] : r.server_counts) {
    out << "server[" << name << "]=" << count << "\n";
  }
  const auto counter = [&out](const char* label,
                              const h2r::ValueCounter& c) {
    for (const auto& [value, count] : c.counts()) {
      out << label << "[" << value << "]=" << count << "\n";
    }
  };
  counter("iws", r.initial_window_size);
  counter("mfs", r.max_frame_size);
  counter("mhls", r.max_header_list_size);
  counter("mcs", r.max_concurrent_streams);
  out << "sframe=" << r.sframe_respecting << "," << r.sframe_zero_length
      << "," << r.sframe_no_response << "," << r.sframe_no_response_litespeed
      << " zero_window_headers_ok=" << r.zero_window_headers_ok << "\n";
  out << "zero_wu=" << r.zero_wu_rst << "," << r.zero_wu_ignore << ","
      << r.zero_wu_goaway << "," << r.zero_wu_goaway_debug << ","
      << r.zero_wu_conn_error << "\n";
  out << "large_wu=" << r.large_wu_conn_goaway << "," << r.large_wu_stream_rst
      << "," << r.large_wu_stream_ignore << "\n";
  out << "priority=" << r.priority_pass_last << "," << r.priority_pass_first
      << "," << r.priority_pass_both << " self_dep=" << r.self_dep_rst << ","
      << r.self_dep_goaway << "," << r.self_dep_ignore << "\n";
  for (const auto& host : r.push_hosts) out << "push=" << host << "\n";
  for (const auto& [family, ratios] : r.hpack_ratio_by_family) {
    out << "hpack[" << family << "]=";
    for (const double ratio : ratios) out << ratio << ";";
    out << "\n";
  }
  out << "hpack_filtered_out=" << r.hpack_filtered_out << "\n";
  out << "outcomes=" << r.sites_ok << "," << r.sites_retried_ok << ","
      << r.sites_truncated << "," << r.sites_disconnected << ","
      << r.sites_timed_out << "\n";
  out << "faults=" << r.fault_exchanges << "," << r.fault_injected << ","
      << r.fault_retries << "," << r.fault_deadline_hits << ","
      << r.fault_backoff_ms << "\n";
  // The in-flight gauge is a property of the driver (the sequential
  // reference never has more than one site in flight), not of the scan.
  h2r::trace::MetricsRegistry wire = r.wire_metrics;
  wire.reactor_peak_in_flight = 0;
  out << "wire=" << wire.to_json() << "\n";
  return out.str();
}

std::uint64_t report_digest(const h2r::corpus::ScanReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : report_fingerprint(r)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::string> check_scan_report(
    const h2r::corpus::ScanReport& report,
    const h2r::corpus::ScanReport& reference, std::size_t sites) {
  std::vector<std::string> failures;
  const std::uint64_t got = report_digest(report);
  const std::uint64_t want = report_digest(reference);
  if (got != want) {
    std::ostringstream msg;
    msg << std::hex << "report digest " << got
        << " != sequential reference " << want;
    failures.push_back(msg.str());
  }
  if (report.fault_deadline_hits != 0) {
    failures.push_back("fault_deadline_hits = " +
                       std::to_string(report.fault_deadline_hits));
  }
  const std::size_t classes = report.sites_ok + report.sites_retried_ok +
                              report.sites_truncated +
                              report.sites_disconnected +
                              report.sites_timed_out;
  if (classes != sites) {
    failures.push_back("site outcome classes sum to " +
                       std::to_string(classes) + ", not " +
                       std::to_string(sites));
  }
  return failures;
}

}  // namespace perfbench
