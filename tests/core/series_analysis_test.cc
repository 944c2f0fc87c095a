#include "core/series_analysis.h"
#include "core/rdt_profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/series_analysis_oracle.h"

namespace vrddram::core {
namespace {

TEST(SeriesAnalysisTest, CraftedSeriesMetrics) {
  // 10 measurements; minimum 100 first appears at index 4, twice.
  const std::vector<std::int64_t> series = {200, 150, 150, 200, 100,
                                            150, 100, 200, 150, 200};
  const SeriesAnalysis a = AnalyzeSeries(series);
  EXPECT_EQ(a.measurements, 10u);
  EXPECT_EQ(a.valid, 10u);
  EXPECT_EQ(a.min_rdt, 100);
  EXPECT_EQ(a.max_rdt, 200);
  EXPECT_DOUBLE_EQ(a.max_over_min, 2.0);
  EXPECT_EQ(a.first_min_index, 4u);
  EXPECT_EQ(a.min_multiplicity, 2u);
  EXPECT_EQ(a.unique_values, 3u);
  EXPECT_DOUBLE_EQ(a.mean, 160.0);
  EXPECT_GT(a.cv, 0.0);
  EXPECT_DOUBLE_EQ(a.box.min, 100.0);
  EXPECT_DOUBLE_EQ(a.box.max, 200.0);
}

TEST(SeriesAnalysisTest, SentinelsExcludedFromValues) {
  std::vector<std::int64_t> series(20, 500);
  series[3] = kNoFlip;
  series[7] = kNoFlip;
  series[11] = 400;
  const SeriesAnalysis a = AnalyzeSeries(series);
  EXPECT_EQ(a.measurements, 20u);
  EXPECT_EQ(a.valid, 18u);
  EXPECT_EQ(a.min_rdt, 400);
  EXPECT_EQ(a.unique_values, 2u);
}

TEST(SeriesAnalysisTest, FirstMinIndexCountsFullSeries) {
  // The sentinel at index 0 still consumed a measurement slot.
  const std::vector<std::int64_t> series = {kNoFlip, 300, 200, 300,
                                            200,     300, 300, 300,
                                            300,     300};
  const SeriesAnalysis a = AnalyzeSeries(series);
  EXPECT_EQ(a.first_min_index, 2u);
}

TEST(SeriesAnalysisTest, ConstantSeries) {
  const std::vector<std::int64_t> series(50, 1000);
  const SeriesAnalysis a = AnalyzeSeries(series);
  EXPECT_DOUBLE_EQ(a.max_over_min, 1.0);
  EXPECT_EQ(a.unique_values, 1u);
  EXPECT_DOUBLE_EQ(a.cv, 0.0);
  EXPECT_DOUBLE_EQ(a.immediate_change_fraction, 0.0);
  EXPECT_DOUBLE_EQ(a.normal_fit.p_value, 1.0);
  EXPECT_EQ(a.run_lengths.LongestRun(), 50u);
}

TEST(SeriesAnalysisTest, AlternatingSeriesChangesEveryMeasurement) {
  std::vector<std::int64_t> series;
  for (int i = 0; i < 100; ++i) {
    series.push_back(i % 2 == 0 ? 100 : 110);
  }
  const SeriesAnalysis a = AnalyzeSeries(series);
  EXPECT_DOUBLE_EQ(a.immediate_change_fraction, 1.0);
  // Perfectly alternating series is strongly anticorrelated at lag 1.
  EXPECT_LT(a.acf[1], -0.9);
  EXPECT_GT(a.acf_significant_fraction, 0.5);
}

TEST(SeriesAnalysisTest, HistogramIsTheUniqueValueHistogramOfValidValues) {
  // Two clusters plus sentinels: the kept histogram must be the one the
  // modes were counted on, built from the valid values only.
  std::vector<std::int64_t> series;
  std::vector<double> valid;
  for (int i = 0; i < 60; ++i) {
    const std::int64_t v = (i % 3 == 0) ? 900 + i % 4 : 1200 + i % 5;
    series.push_back(i % 7 == 0 ? kNoFlip : v);
    if (series.back() >= 0) {
      valid.push_back(static_cast<double>(v));
    }
  }
  const SeriesAnalysis a = AnalyzeSeries(series);
  const stats::Histogram expected =
      oracle::series_detail::UniqueValueHistogram(valid);
  ASSERT_EQ(a.histogram.bins.size(), expected.bins.size());
  EXPECT_EQ(a.histogram.bins.size(), a.unique_values);
  for (std::size_t b = 0; b < expected.bins.size(); ++b) {
    EXPECT_EQ(a.histogram.bins[b].lo, expected.bins[b].lo) << b;
    EXPECT_EQ(a.histogram.bins[b].hi, expected.bins[b].hi) << b;
    EXPECT_EQ(a.histogram.bins[b].count, expected.bins[b].count) << b;
  }
  EXPECT_EQ(a.histogram.total, expected.total);
  EXPECT_EQ(a.histogram.total, a.valid);
  EXPECT_EQ(a.histogram_modes, stats::CountModes(a.histogram));
}

TEST(SeriesAnalysisTest, TooFewValidMeasurementsThrow) {
  const std::vector<std::int64_t> series = {kNoFlip, kNoFlip, 100};
  EXPECT_THROW(AnalyzeSeries(series), FatalError);
}

// Fewer than 8 flips is refused up front with the count, whether the
// flips vary (the chi-square test could not run) or not.
TEST(SeriesAnalysisTest, FewerThanEightFlipsNameTheCause) {
  const std::vector<std::vector<std::int64_t>> too_few = {
      std::vector<std::int64_t>(20, kNoFlip),
      {kNoFlip, 100, 110, 120, 100, 130, 100, 140},
      std::vector<std::int64_t>(7, 500)};
  for (const std::vector<std::int64_t>& series : too_few) {
    const auto flips = std::ranges::count_if(
        series, [](std::int64_t v) { return v >= 0; });
    try {
      AnalyzeSeries(series);
      ADD_FAILURE() << flips << " flips accepted";
    } catch (const FatalError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "series has " + std::to_string(flips) +
                    " flipping measurements; analysis needs at least 8"),
                std::string::npos)
          << e.what();
    }
  }
}

// Bit-for-bit equality: two doubles match only when every bit does, so
// a changed summation order shows even where the values round equal.
void ExpectSameBits(double expected, double actual, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected),
            std::bit_cast<std::uint64_t>(actual))
      << what << ": expected " << expected << ", got " << actual;
}

void ExpectMatchesOracle(std::span<const std::int64_t> series,
                         std::size_t acf_max_lag, const std::string& label) {
  SCOPED_TRACE(label);
  const SeriesAnalysis want = oracle::AnalyzeSeries(series, acf_max_lag);
  const SeriesAnalysis got = AnalyzeSeries(series, acf_max_lag);
  EXPECT_EQ(got.measurements, want.measurements);
  EXPECT_EQ(got.valid, want.valid);
  EXPECT_EQ(got.min_rdt, want.min_rdt);
  EXPECT_EQ(got.max_rdt, want.max_rdt);
  ExpectSameBits(want.max_over_min, got.max_over_min, "max_over_min");
  EXPECT_EQ(got.first_min_index, want.first_min_index);
  EXPECT_EQ(got.min_multiplicity, want.min_multiplicity);
  EXPECT_EQ(got.unique_values, want.unique_values);
  ExpectSameBits(want.mean, got.mean, "mean");
  ExpectSameBits(want.stddev, got.stddev, "stddev");
  ExpectSameBits(want.cv, got.cv, "cv");
  ExpectSameBits(want.box.min, got.box.min, "box.min");
  ExpectSameBits(want.box.q1, got.box.q1, "box.q1");
  ExpectSameBits(want.box.median, got.box.median, "box.median");
  ExpectSameBits(want.box.q3, got.box.q3, "box.q3");
  ExpectSameBits(want.box.max, got.box.max, "box.max");
  ExpectSameBits(want.box.mean, got.box.mean, "box.mean");
  EXPECT_EQ(got.run_lengths.counts, want.run_lengths.counts);
  ExpectSameBits(want.immediate_change_fraction,
                 got.immediate_change_fraction, "immediate_change");
  ExpectSameBits(want.normal_fit.statistic, got.normal_fit.statistic,
                 "normal_fit.statistic");
  EXPECT_EQ(got.normal_fit.dof, want.normal_fit.dof);
  ExpectSameBits(want.normal_fit.p_value, got.normal_fit.p_value,
                 "normal_fit.p_value");
  EXPECT_EQ(got.normal_fit.bins_used, want.normal_fit.bins_used);
  ExpectSameBits(want.normal_fit.fitted_mean, got.normal_fit.fitted_mean,
                 "normal_fit.fitted_mean");
  ExpectSameBits(want.normal_fit.fitted_stddev,
                 got.normal_fit.fitted_stddev, "normal_fit.fitted_stddev");
  ASSERT_EQ(got.acf.size(), want.acf.size());
  for (std::size_t k = 0; k < want.acf.size(); ++k) {
    ExpectSameBits(want.acf[k], got.acf[k], "acf[" + std::to_string(k) + "]");
  }
  ExpectSameBits(want.acf_significant_fraction,
                 got.acf_significant_fraction, "acf_significant_fraction");
  ASSERT_EQ(got.histogram.bins.size(), want.histogram.bins.size());
  for (std::size_t b = 0; b < want.histogram.bins.size(); ++b) {
    const std::string bin = "histogram bin " + std::to_string(b);
    ExpectSameBits(want.histogram.bins[b].lo, got.histogram.bins[b].lo,
                   bin + " lo");
    ExpectSameBits(want.histogram.bins[b].hi, got.histogram.bins[b].hi,
                   bin + " hi");
    EXPECT_EQ(got.histogram.bins[b].count, want.histogram.bins[b].count)
        << bin;
  }
  EXPECT_EQ(got.histogram.total, want.histogram.total);
  EXPECT_EQ(got.histogram_modes, want.histogram_modes);
}

// A latent normal RDT quantized up to a sweep grid, as the profiler
// records it, with an optional share of no-flip sentinels.
std::vector<std::int64_t> GridSeries(Rng& rng, std::size_t length,
                                     double mean, double sigma,
                                     std::int64_t step,
                                     double noflip_fraction) {
  std::vector<std::int64_t> series;
  series.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.NextBernoulli(noflip_fraction)) {
      series.push_back(kNoFlip);
      continue;
    }
    const double latent = std::max(1.0, rng.NextGaussian(mean, sigma));
    const auto steps = static_cast<std::int64_t>(
        std::ceil(latent / static_cast<double>(step)));
    series.push_back(steps * step);
  }
  return series;
}

TEST(SeriesAnalysisOracleTest, RandomGridSeriesMatchBitForBit) {
  Rng rng(0x5e71e5);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t length = 8 + rng.NextBelow(2000);
    const double mean = 2000.0 + 30000.0 * rng.NextDouble();
    const double sigma = mean * (0.002 + 0.05 * rng.NextDouble());
    const auto step = static_cast<std::int64_t>(1 + rng.NextBelow(300));
    const double noflip = (trial % 3 == 0) ? 0.1 : 0.0;
    std::vector<std::int64_t> series =
        GridSeries(rng, length, mean, sigma, step, noflip);
    // Keep at least 8 flipping measurements.
    for (std::size_t i = 0; i < 8; ++i) {
      if (series[i] < 0) {
        series[i] = step * 10;
      }
    }
    ExpectMatchesOracle(series, trial % 2 == 0 ? 40 : 1,
                        "trial " + std::to_string(trial));
  }
}

TEST(SeriesAnalysisOracleTest, HeavyTiesAndAllDistinctMatchBitForBit) {
  Rng rng(77);
  std::vector<std::int64_t> ties;
  for (int i = 0; i < 1000; ++i) {
    ties.push_back(1000 + 7 * static_cast<std::int64_t>(rng.NextBelow(3)));
  }
  ExpectMatchesOracle(ties, 40, "three values");

  std::vector<std::int64_t> two_values(500, 4000);
  two_values[123] = 3990;
  ExpectMatchesOracle(two_values, 40, "a single deeper minimum");

  std::vector<std::int64_t> distinct;
  for (std::int64_t i = 0; i < 1000; ++i) {
    distinct.push_back(5000 + (i * 389) % 1000);  // a permutation
  }
  ExpectMatchesOracle(distinct, 40, "all distinct");
}

TEST(SeriesAnalysisOracleTest, ConstantAndSentinelSeriesMatchBitForBit) {
  ExpectMatchesOracle(std::vector<std::int64_t>(50, 1000), 40, "constant");

  std::vector<std::int64_t> constant_with_gaps(30, 700);
  constant_with_gaps[0] = kNoFlip;
  constant_with_gaps[17] = kNoFlip;
  ExpectMatchesOracle(constant_with_gaps, 40, "constant with sentinels");

  std::vector<std::int64_t> sparse(200, kNoFlip);
  for (std::size_t i = 0; i < 12; ++i) {
    sparse[i * 16 + 3] = 900 + static_cast<std::int64_t>(i % 4) * 10;
  }
  ExpectMatchesOracle(sparse, 40, "mostly sentinels");
}

TEST(SeriesAnalysisOracleTest, LongSeriesMatchesBitForBit) {
  Rng rng(100000);
  const std::vector<std::int64_t> series =
      GridSeries(rng, 100000, 12000.0, 250.0, 60, 0.01);
  ExpectMatchesOracle(series, 40, "100,000 measurements");
}

}  // namespace
}  // namespace vrddram::core
