// The scan workloads' output check: a byte-exact rendering of a ScanReport
// (doubles as hexfloats), its 64-bit digest, and the checks a timed scan
// must pass against the sequential reference driver's report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/scan.h"

namespace perfbench {

/// Every aggregate field of @p r, including the wiretap metrics with the
/// driver-dependent in-flight gauge left out.
std::string report_fingerprint(const h2r::corpus::ScanReport& r);

/// FNV-1a 64 of report_fingerprint(r).
std::uint64_t report_digest(const h2r::corpus::ScanReport& r);

/// The checks a timed scan's report must pass: its digest equals the
/// reference's, no exchange hit a deadline, and the five site-outcome
/// classes sum to @p sites. Returns one message per failed check.
std::vector<std::string> check_scan_report(
    const h2r::corpus::ScanReport& report,
    const h2r::corpus::ScanReport& reference, std::size_t sites);

}  // namespace perfbench
