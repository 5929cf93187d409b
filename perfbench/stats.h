#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics (the "type 7" definition); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Means of `values` over consecutive windows of `window` values; a partial
/// window at the end is left out.
std::vector<double> WindowMeans(const std::vector<double>& values,
                                size_t window);

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has at
/// least ten samples beyond it, with its value.
struct TailPercentile {
  bool supported = false;  // false when no listed percentile qualifies
  double percentile = 0.0;
  double value = 0.0;
};
TailPercentile HighestSupportedPercentile(const std::vector<double>& values);

/// "n=12 median=1.5 p75=1.9" style summary of one metric's samples.
std::string Summarize(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
