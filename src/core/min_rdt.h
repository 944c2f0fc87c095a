/**
 * @file
 * Minimum-RDT identification analysis (§5.1, Figs. 8, 15, 25): for
 * each measurement series, the probability of finding the series
 * minimum (optionally within a safety margin) with N uniformly drawn
 * measurements, and the expected normalized value of the minimum
 * found.
 *
 * The paper estimates these by drawing N of the L measurements with
 * replacement 10k times per row. That estimator has a closed form, so
 * the analysis computes it exactly: a draw of N misses the c smallest
 * entries with probability ((L - c)/L)^N, and every statistic is a
 * difference of such tail probabilities over the sorted series.
 */
#ifndef VRDDRAM_CORE_MIN_RDT_H
#define VRDDRAM_CORE_MIN_RDT_H

#include <cstdint>
#include <vector>

#include "core/sorted_flips.h"

namespace vrddram::core {

struct MinRdtSettings {
  /// The paper's N values.
  std::vector<std::size_t> sample_sizes = {1, 3, 5, 10, 50, 500};
  /// Safety margins for Fig. 15, in integer percent of the minimum
  /// RDT: a value v is within margin p when v*100 <= (100+p)*min.
  std::vector<std::uint32_t> margins = {10, 20, 30, 40, 50};
};

/// Statistics for one sample size N.
struct MinSampleResult {
  double prob_find_min = 0.0;      ///< P(min of draw == min of series).
  double expected_norm_min = 0.0;  ///< E[min of draw] / min of series.
  /// P(min of draw within margin of the series min), one entry per
  /// configured margin.
  std::vector<double> prob_within_margin;
};

/// Per-series results.
struct RowMinRdtResult {
  std::size_t valid_count = 0;  ///< L: measurements that flipped.
  std::size_t min_count = 0;    ///< k: multiplicity of the minimum.
  /// One entry per MinRdtSettings::sample_sizes entry, in order.
  std::vector<MinSampleResult> per_n;
};

/**
 * Exact statistics for one series at every configured N and margin,
 * read from its runs (a campaign record's `flips`, or BuildSortedFlips
 * of a raw series); no-flip measurements take no part. Throws when no
 * measurement flipped or an RDT value is not positive.
 */
RowMinRdtResult AnalyzeRowSeries(const SortedFlips& flips,
                                 const MinRdtSettings& settings);

/// Single-draw (N = 1) P(find min) = k/L compared with `permille`/1000
/// in integers, so a row on the boundary (a unique minimum among 1000)
/// classifies the same on every platform.
bool SingleDrawFindMinAtMost(const RowMinRdtResult& row,
                             std::uint64_t permille);
bool SingleDrawFindMinAtLeast(const RowMinRdtResult& row,
                              std::uint64_t permille);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_MIN_RDT_H
