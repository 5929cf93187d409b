#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::vector<double> WindowMeans(const std::vector<double>& values,
                                size_t window) {
  std::vector<double> out;
  for (size_t w = 0; window > 0 && w + window <= values.size(); w += window) {
    double sum = 0.0;
    for (size_t i = w; i < w + window; ++i) sum += values[i];
    out.push_back(sum / static_cast<double>(window));
  }
  return out;
}

TailPercentile HighestSupportedPercentile(const std::vector<double>& values) {
  TailPercentile out;
  const double n = static_cast<double>(values.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly beyond the percentile: n * (1 - p/100).
    if (n * (1.0 - p / 100.0) >= 10.0 - 1e-9) {
      out.supported = true;
      out.percentile = p;
      out.value = Quantile(values, p / 100.0);
      return out;
    }
  }
  return out;
}

std::string Summarize(const std::vector<double>& values) {
  char buf[160];
  const TailPercentile tail = HighestSupportedPercentile(values);
  if (tail.supported) {
    std::snprintf(buf, sizeof(buf), "n=%zu median=%.6g p%g=%.6g",
                  values.size(), Median(values), tail.percentile, tail.value);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "n=%zu median=%.6g (no percentile has 10 samples beyond it)",
                  values.size(), Median(values));
  }
  return buf;
}

}  // namespace perfbench
