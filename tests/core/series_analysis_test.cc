#include "core/series_analysis.h"
#include "core/rdt_profiler.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

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
  const stats::Histogram expected = stats::BuildUniqueValueHistogram(valid);
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

}  // namespace
}  // namespace vrddram::core
