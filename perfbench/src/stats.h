#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Dispersion of one measured quantity over its repetitions. Quartiles use
/// the "exclusive" method of Python's statistics.quantiles(n=4), so numbers
/// printed here match what a reader recomputes from the raw values.
struct Summary {
  size_t n = 0;
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
};

/// Summary of `values`; all fields zero when empty.
Summary Summarize(std::vector<double> values);

/// The `p`-th percentile (0..100, linear interpolation between order
/// statistics), or nullopt when fewer than ten samples lie beyond it: a p99
/// needs at least 1000 samples. A tail percentile interpolated from a
/// handful of points is noise, so it is refused rather than reported.
std::optional<double> Percentile(std::vector<double> values, double p);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
