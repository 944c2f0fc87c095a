/**
 * @file
 * Descriptive statistics used throughout the characterization study:
 * mean/stddev, percentiles, and the box-and-whisker summary the
 * paper plots in Figs. 3, 8-13, and 15.
 */
#ifndef VRDDRAM_STATS_DESCRIPTIVE_H
#define VRDDRAM_STATS_DESCRIPTIVE_H

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace vrddram::stats {

/// Arithmetic mean; empty input is a caller error.
double Mean(std::span<const double> xs);

/**
 * Percentile by linear interpolation between closest ranks;
 * p in [0, 100]. Matches the common "linear" convention (numpy
 * default), which is what the paper's plotting stack used.
 */
double Percentile(std::span<const double> xs, double p);

/// Median = 50th percentile.
double Median(std::span<const double> xs);

/// Box-and-whisker summary (paper footnote 6).
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/**
 * Box-and-whisker summary of `n` values as the paper's footnote 6
 * defines it: box from Q1 to Q3 (medians of the lower/upper halves of
 * the ordered data, i.e. Tukey's hinges, excluding the middle element
 * for odd n), whiskers at min/max, circle at the mean.
 *
 * The values are read by rank: `at(i)` returns the i-th smallest as a
 * double, so a caller reads its own sorted storage (a sorted array, or
 * runs of equal values) without copying it. `mean` is the caller's,
 * summed over the data in its own order.
 */
template <typename RankFn>
BoxStats ComputeBoxStats(std::size_t n, RankFn at, double mean) {
  static_assert(std::is_same_v<std::invoke_result_t<RankFn&, std::size_t>,
                               double>,
                "at(i) must return the value as a double");
  VRD_FATAL_IF(n == 0, "BoxStats of empty series");
  // Median of the ranks [lo, hi).
  auto median_of = [&at](std::size_t lo, std::size_t hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if ((hi - lo) % 2 == 1) {
      return at(mid);
    }
    return 0.5 * (at(mid - 1) + at(mid));
  };
  BoxStats out;
  out.min = at(0);
  out.max = at(n - 1);
  out.median = median_of(0, n);
  if (n == 1) {
    out.q1 = out.q3 = out.min;
  } else {
    out.q1 = median_of(0, n / 2);
    out.q3 = median_of(n - n / 2, n);
  }
  out.mean = mean;
  return out;
}

/// Convenience: widen an integral series to double for the stats API.
std::vector<double> ToDoubles(std::span<const std::int64_t> xs);

}  // namespace vrddram::stats

#endif  // VRDDRAM_STATS_DESCRIPTIVE_H
