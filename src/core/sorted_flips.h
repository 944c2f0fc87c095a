/**
 * @file
 * The sorted view of one measurement series that both per-series
 * analyses share: its flipping measurements sorted once and collapsed
 * into runs of equal values. core::AnalyzeSeries reads the minimum, the
 * unique-value count, the box, the §4.1 chi-square test and the Fig. 4
 * histogram from it; core::AnalyzeRowSeries reads the minimum-RDT tail
 * probabilities.
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

  /// The i-th smallest flipping measurement (0-based), i < size.
  std::int64_t AtRank(std::size_t i) const;
};

/// Drop the kNoFlip sentinels (negative values) of `series`, sort the
/// rest once and record its runs.
SortedFlips BuildSortedFlips(std::span<const std::int64_t> series);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_SORTED_FLIPS_H
