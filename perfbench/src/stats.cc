#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// Python's statistics.quantiles(data, n=4, method="exclusive") on sorted
/// data with at least two points; cut point i of 3.
double ExclusiveQuartile(const std::vector<double>& sorted, int i) {
  const long n = static_cast<long>(sorted.size());
  const long m = n + 1;
  const long j = std::clamp<long>(i * m / 4, 1, n - 1);
  // Signed: after the clamp Python extrapolates past the end points.
  const long delta = i * m - j * 4;
  return (sorted[j - 1] * static_cast<double>(4 - delta) +
          sorted[j] * static_cast<double>(delta)) /
         4.0;
}

}  // namespace

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  const size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = values[0];
  } else {
    s.q1 = ExclusiveQuartile(values, 1);
    s.q3 = ExclusiveQuartile(values, 3);
  }
  return s;
}

std::optional<double> Percentile(std::vector<double> values, double p) {
  const double n = static_cast<double>(values.size());
  if (values.empty() || p < 0.0 || p > 100.0) return std::nullopt;
  // Samples strictly beyond the percentile's rank; exact in integers for
  // the percentiles used here (n * (100 - p) / 100, rounded down).
  double beyond = std::floor(n * (100.0 - p) / 100.0 + 1e-9);
  if (p > 50.0 && beyond < 10.0) return std::nullopt;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * (n - 1.0);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
