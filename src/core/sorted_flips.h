/**
 * @file
 * The sorted view of one measurement series: its flipping measurements
 * counted once and collapsed into runs of equal values, plus its no-flip
 * count. It is the series' whole value distribution without its order,
 * which is all a campaign analysis reads, so a campaign record stores
 * it in place of the raw series (core::SeriesRecord). core::AnalyzeSeries
 * reads the minimum, the unique-value count, the box, the §4.1
 * chi-square test and the Fig. 4 histogram from it; core::AnalyzeRowSeries
 * reads the minimum-RDT tail probabilities.
 */
#ifndef VRDDRAM_CORE_SORTED_FLIPS_H
#define VRDDRAM_CORE_SORTED_FLIPS_H

#include <cstdint>
#include <span>
#include <vector>

namespace vrddram::core {

struct SortedFlips {
  std::vector<std::int64_t> run_values;  ///< distinct values, ascending
  std::vector<std::size_t> run_counts;   ///< occurrences of each value
  std::size_t size = 0;                  ///< flipping measurements
  std::size_t no_flips = 0;  ///< measurements that observed no flip

  /// Every measurement of the series, flipping or not.
  std::size_t measurements() const { return size + no_flips; }

  /// The i-th smallest flipping measurement (0-based), i < size.
  std::int64_t AtRank(std::size_t i) const;

  bool operator==(const SortedFlips&) const = default;
};

/// Count and drop the kNoFlip sentinels (negative values) of `series`,
/// count the occurrences of each distinct flipping value in one pass
/// and order only the d distinct values: O(n + d log d).
SortedFlips BuildSortedFlips(std::span<const std::int64_t> series);

/// Mean, sample standard deviation (n - 1 denominator) and coefficient
/// of variation of the flipping measurements.
struct FlipMoments {
  double mean = 0.0;
  double stddev = 0.0;
  double cv = 0.0;  ///< stddev / mean (0 when the mean is 0)
};

/**
 * The moments in closed form over the runs: Σx and Σx² are exact
 * integers, mean = Σx / n and variance = (nΣx² − (Σx)²) / (n(n − 1))
 * are each rounded once to the nearest double, so the result does not
 * depend on the order the measurements were taken in. Throws a
 * FatalError when no measurement flipped, or when a value is too large
 * for the exact sums (n · max ≥ 2^63).
 */
FlipMoments ComputeMoments(const SortedFlips& flips);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_SORTED_FLIPS_H
