/**
 * @file
 * Test-only reference oracle for the minimum-RDT statistics: the
 * paper's §5.1 Monte Carlo procedure, which uniformly draws N of a
 * series' measurements with replacement per iteration and compares the
 * minimum of the draw with the minimum of the series.
 * core::AnalyzeRowSeries computes the same statistics in closed form;
 * tests check it against this estimator.
 */
#ifndef VRDDRAM_TESTS_STATS_MIN_SAMPLE_ORACLE_H
#define VRDDRAM_TESTS_STATS_MIN_SAMPLE_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace vrddram::oracle {

/// Monte Carlo estimates for one sample size N.
struct MinSampleEstimate {
  double prob_find_min = 0.0;      ///< P(min of draw == min of series).
  double expected_norm_min = 0.0;  ///< E[min of draw] / min of series.
  /// P(min of draw within margin), one entry per integer-percent margin.
  std::vector<double> prob_within_margin;
};

/// Resample the flipping measurements of `series` (kNoFlip sentinels
/// skipped) `iterations` times with `sample_size` draws each.
inline MinSampleEstimate SampleMinStatistics(
    std::span<const std::int64_t> series, std::size_t sample_size,
    std::size_t iterations, Rng& rng,
    std::span<const std::uint32_t> margins = {}) {
  std::vector<std::int64_t> valid;
  for (const std::int64_t v : series) {
    if (v >= 0) {
      valid.push_back(v);
    }
  }
  const std::int64_t series_min =
      *std::min_element(valid.begin(), valid.end());

  std::uint64_t hits = 0;
  double norm_min_sum = 0.0;
  std::vector<std::uint64_t> margin_hits(margins.size(), 0);
  for (std::size_t it = 0; it < iterations; ++it) {
    std::int64_t draw_min = valid[rng.NextBelow(valid.size())];
    for (std::size_t j = 1; j < sample_size; ++j) {
      draw_min = std::min(draw_min, valid[rng.NextBelow(valid.size())]);
    }
    hits += draw_min == series_min ? 1 : 0;
    norm_min_sum += static_cast<double>(draw_min) /
                    static_cast<double>(series_min);
    for (std::size_t m = 0; m < margins.size(); ++m) {
      if (draw_min * 100 <= (100 + std::int64_t{margins[m]}) * series_min) {
        ++margin_hits[m];
      }
    }
  }

  const auto total = static_cast<double>(iterations);
  MinSampleEstimate out;
  out.prob_find_min = static_cast<double>(hits) / total;
  out.expected_norm_min = norm_min_sum / total;
  for (const std::uint64_t h : margin_hits) {
    out.prob_within_margin.push_back(static_cast<double>(h) / total);
  }
  return out;
}

}  // namespace vrddram::oracle

#endif  // VRDDRAM_TESTS_STATS_MIN_SAMPLE_ORACLE_H
