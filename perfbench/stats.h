// Small statistics the benchmark reports with: medians, nearest-rank
// percentiles under the ten-samples-beyond rule, and the failure fraction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of @p values (mean of the middle pair for even sizes); 0 when
/// empty.
double median(std::vector<double> values);

/// Mean of the middle half of @p values (the lowest and highest quarter
/// dropped): a few outlying values move it little, and unlike a median it
/// does not repeat a value quantized by a coarse clock. 0 when empty.
double interquartile_mean(std::vector<double> values);

/// The nearest-rank @p q-quantile of @p samples, or nullopt when fewer than
/// ten samples lie beyond it: a tail is reported only when the sample
/// supports it (p99 needs 1,000 samples, p99.9 needs 10,000).
std::optional<double> supported_tail(std::vector<double> samples, double q);

/// @p num / @p den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Failed operations as a share of attempted ones. Nothing attempted counts
/// as total failure (1.0), and failures beyond the attempts are clamped.
double fail_frac(std::uint64_t attempted, std::uint64_t failed);

}  // namespace perfbench
