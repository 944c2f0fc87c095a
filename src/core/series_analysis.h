/**
 * @file
 * Per-series VRD analysis: every statistic the paper derives from a
 * series of repeated RDT measurements (Findings 1-4 and the Fig. 1-7
 * metrics) in one structure.
 */
#ifndef VRDDRAM_CORE_SERIES_ANALYSIS_H
#define VRDDRAM_CORE_SERIES_ANALYSIS_H

#include <cstdint>
#include <span>
#include <vector>

#include "stats/autocorrelation.h"
#include "stats/chi_square.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/run_length.h"

namespace vrddram::core {

struct SeriesAnalysis {
  std::size_t measurements = 0;  ///< series length, including no-flips
  std::size_t valid = 0;         ///< measurements that observed a flip

  std::int64_t min_rdt = 0;
  std::int64_t max_rdt = 0;
  double max_over_min = 0.0;           ///< Finding 5's 3.5x metric
  std::size_t first_min_index = 0;     ///< measurement # where the
                                       ///< minimum first appears (Fig. 1)
  std::size_t min_multiplicity = 0;    ///< how often the minimum occurs

  std::size_t unique_values = 0;       ///< Finding 2 (Fig. 4)
  double mean = 0.0;
  double stddev = 0.0;
  double cv = 0.0;                     ///< Fig. 7 coefficient of variation
  stats::BoxStats box;                 ///< Fig. 3

  stats::RunLengthHistogram run_lengths;  ///< Fig. 5
  double immediate_change_fraction = 0.0; ///< Finding 3 (79.0%)

  stats::GoodnessOfFit normal_fit;     ///< §4.1 chi-square test
  std::vector<double> acf;             ///< Fig. 6
  double acf_significant_fraction = 0.0;
  stats::Histogram histogram;          ///< unique-value bins (Fig. 4)
  std::size_t histogram_modes = 0;     ///< bimodality probe (Finding 2)
};

/// Flipping measurements a series needs before AnalyzeSeries (and its
/// §4.1 chi-square test) accepts it.
inline constexpr std::size_t kMinAnalyzedFlips = 8;

/**
 * Analyze a measurement series. kNoFlip sentinels (negative values)
 * are excluded from value statistics but noted in `measurements`.
 * Throws a FatalError naming the count when fewer than
 * kMinAnalyzedFlips measurements flipped.
 *
 * The flipping measurements are counted once (core::SortedFlips); the
 * minimum, unique-value count, box, chi-square categories, histogram
 * and the closed-form mean, stddev and CV (core::ComputeMoments) read
 * that table. The ACF, run lengths and first-minimum index read the
 * series in measurement order.
 */
SeriesAnalysis AnalyzeSeries(std::span<const std::int64_t> series,
                             std::size_t acf_max_lag = 40);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_SERIES_ANALYSIS_H
