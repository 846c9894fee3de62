#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

std::optional<double> supported_tail(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0 || q >= 1) return std::nullopt;
  // Nearest rank: the sample at 1-based rank ceil(q * n). The epsilon keeps
  // 0.99 * 1000 from rounding up to rank 991.
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(n) - 1e-9)));
  const std::size_t beyond = n - rank;
  if (beyond < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double fail_frac(std::uint64_t attempted, std::uint64_t failed) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(std::min(failed, attempted)) /
         static_cast<double>(attempted);
}

}  // namespace perfbench
