#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vrddram::stats {

double Mean(std::span<const double> xs) {
  VRD_FATAL_IF(xs.empty(), "Mean of empty series");
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return sum / static_cast<double>(xs.size());
}

double Percentile(std::span<const double> xs, double p) {
  VRD_FATAL_IF(xs.empty(), "Percentile of empty series");
  VRD_FATAL_IF(p < 0.0 || p > 100.0, "percentile must be in [0, 100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) {
    return sorted.front();
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Median(std::span<const double> xs) { return Percentile(xs, 50.0); }

std::vector<double> ToDoubles(std::span<const std::int64_t> xs) {
  return {xs.begin(), xs.end()};
}

}  // namespace vrddram::stats
