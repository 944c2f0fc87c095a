/**
 * @file
 * Histogram construction matching the paper's Fig. 4 convention: the
 * number of bins equals the number of unique measured values, bins are
 * equal-width over [min, max].
 */
#ifndef VRDDRAM_STATS_HISTOGRAM_H
#define VRDDRAM_STATS_HISTOGRAM_H

#include <cstdint>
#include <span>
#include <vector>

namespace vrddram::stats {

/// One histogram bin: [lo, hi) except the last bin which is [lo, hi].
struct HistogramBin {
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t count = 0;
};

struct Histogram {
  std::vector<HistogramBin> bins;
  std::uint64_t total = 0;

  /// Index of the most populated bin.
  std::size_t ModeBin() const;
};

/**
 * Fig. 4 convention: one equal-width bin over [min, max] per distinct
 * value. The sample arrives as runs: `values` are its distinct values
 * in ascending order and `counts[i]` how often values[i] occurs.
 */
Histogram BuildUniqueValueHistogram(std::span<const double> values,
                                    std::span<const std::size_t> counts);

/**
 * Modality probe used to flag the bimodal HBM chip (Finding 2): counts
 * local maxima of a smoothed histogram whose height exceeds
 * `min_prominence` times the global mode.
 */
std::size_t CountModes(const Histogram& hist, double min_prominence = 0.1);

}  // namespace vrddram::stats

#endif  // VRDDRAM_STATS_HISTOGRAM_H
