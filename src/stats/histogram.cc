#include "stats/histogram.h"

#include <algorithm>
#include <functional>

#include "common/error.h"

namespace vrddram::stats {

std::size_t Histogram::ModeBin() const {
  VRD_ASSERT(!bins.empty());
  std::size_t best = 0;
  for (std::size_t b = 1; b < bins.size(); ++b) {
    if (bins[b].count > bins[best].count) {
      best = b;
    }
  }
  return best;
}

Histogram BuildUniqueValueHistogram(std::span<const double> values,
                                    std::span<const std::size_t> counts) {
  VRD_FATAL_IF(values.empty(), "histogram of empty series");
  VRD_FATAL_IF(values.size() != counts.size(),
               "histogram needs one count per value");
  VRD_FATAL_IF(std::adjacent_find(values.begin(), values.end(),
                                  std::greater_equal<>()) != values.end(),
               "histogram needs distinct values in ascending order");
  const std::size_t num_bins = values.size();
  const double lo = values.front();
  const double hi = values.back();

  Histogram hist;
  hist.bins.resize(num_bins);
  const double width = (hi > lo)
      ? (hi - lo) / static_cast<double>(num_bins)
      : 1.0;
  for (std::size_t b = 0; b < num_bins; ++b) {
    hist.bins[b].lo = lo + width * static_cast<double>(b);
    hist.bins[b].hi = lo + width * static_cast<double>(b + 1);
  }
  hist.bins.back().hi = std::max(hist.bins.back().hi, hi);

  // Every occurrence of a value lands in the same bin.
  for (std::size_t i = 0; i < num_bins; ++i) {
    auto b = static_cast<std::size_t>((values[i] - lo) / width);
    if (b >= num_bins) {
      b = num_bins - 1;  // the maximum lands in the closed last bin
    }
    hist.bins[b].count += counts[i];
    hist.total += counts[i];
  }
  return hist;
}

std::size_t CountModes(const Histogram& hist, double min_prominence) {
  VRD_ASSERT(!hist.bins.empty());
  // Smooth with a 3-tap box filter to suppress quantization jitter.
  const std::size_t n = hist.bins.size();
  std::vector<double> smooth(n, 0.0);
  for (std::size_t b = 0; b < n; ++b) {
    double sum = static_cast<double>(hist.bins[b].count);
    double taps = 1.0;
    if (b > 0) {
      sum += static_cast<double>(hist.bins[b - 1].count);
      taps += 1.0;
    }
    if (b + 1 < n) {
      sum += static_cast<double>(hist.bins[b + 1].count);
      taps += 1.0;
    }
    smooth[b] = sum / taps;
  }
  const double peak = *std::max_element(smooth.begin(), smooth.end());
  if (peak <= 0.0) {
    return 0;
  }
  const double floor_height = peak * min_prominence;

  // Count maximal plateaus that are strict local maxima above the
  // prominence floor and separated by a dip below half their height.
  std::size_t modes = 0;
  double last_peak_height = 0.0;
  bool in_valley = true;
  for (std::size_t b = 0; b < n; ++b) {
    const double left = (b > 0) ? smooth[b - 1] : -1.0;
    const double right = (b + 1 < n) ? smooth[b + 1] : -1.0;
    const bool local_max = smooth[b] >= left && smooth[b] >= right &&
                           smooth[b] > floor_height;
    if (local_max && in_valley) {
      ++modes;
      last_peak_height = smooth[b];
      in_valley = false;
    } else if (!in_valley && smooth[b] < 0.5 * last_peak_height) {
      in_valley = true;
    }
  }
  return modes;
}

}  // namespace vrddram::stats
