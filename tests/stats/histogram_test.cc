#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace vrddram::stats {
namespace {

TEST(HistogramTest, BuildPlacesValuesInBins) {
  const std::vector<double> values = {0.0, 1.0, 2.0, 3.0};
  const std::vector<std::size_t> counts = {1, 1, 1, 1};
  const Histogram hist = BuildUniqueValueHistogram(values, counts);
  ASSERT_EQ(hist.bins.size(), 4u);
  EXPECT_EQ(hist.total, 4u);
  for (const HistogramBin& bin : hist.bins) {
    EXPECT_EQ(bin.count, 1u);
  }
}

TEST(HistogramTest, MaxValueLandsInLastBin) {
  const std::vector<double> values = {0.0, 10.0};
  const std::vector<std::size_t> counts = {1, 1};
  const Histogram hist = BuildUniqueValueHistogram(values, counts);
  EXPECT_EQ(hist.bins.back().count, 1u);
  EXPECT_EQ(hist.bins.front().count, 1u);
}

TEST(HistogramTest, ConstantSeries) {
  const std::vector<double> values = {5.0};
  const std::vector<std::size_t> counts = {3};
  const Histogram hist = BuildUniqueValueHistogram(values, counts);
  ASSERT_EQ(hist.bins.size(), 1u);
  EXPECT_EQ(hist.bins[0].count, 3u);
}

TEST(HistogramTest, UniqueValueHistogramBinCount) {
  const std::vector<double> values = {1.0, 2.0, 4.0};
  const std::vector<std::size_t> counts = {1, 2, 1};
  const Histogram hist = BuildUniqueValueHistogram(values, counts);
  EXPECT_EQ(hist.bins.size(), 3u);  // Fig. 4: bins = unique values
}

// A value's whole count lands in the bin its (x - lo) / width picks.
TEST(HistogramTest, EveryOccurrenceOfAValueLandsInItsBin) {
  const std::vector<double> values = {0.0, 1.0, 3.0};
  const std::vector<std::size_t> counts = {2, 5, 1};
  const Histogram hist = BuildUniqueValueHistogram(values, counts);
  ASSERT_EQ(hist.bins.size(), 3u);
  EXPECT_EQ(hist.bins[0].count, 2u);
  EXPECT_EQ(hist.bins[1].count, 5u);
  EXPECT_EQ(hist.bins[2].count, 1u);
  EXPECT_EQ(hist.total, 8u);
}

TEST(HistogramTest, Mode) {
  const std::vector<double> values = {1.0, 2.0};
  const std::vector<std::size_t> counts = {3, 1};
  const Histogram hist = BuildUniqueValueHistogram(values, counts);
  EXPECT_EQ(hist.ModeBin(), 0u);
}

TEST(HistogramTest, MalformedRunsThrow) {
  const std::vector<double> none;
  EXPECT_THROW(BuildUniqueValueHistogram(none, {}), FatalError);
  const std::vector<double> values = {1.0, 2.0};
  const std::vector<std::size_t> one_count = {1};
  EXPECT_THROW(BuildUniqueValueHistogram(values, one_count), FatalError);
  const std::vector<double> descending = {2.0, 1.0};
  const std::vector<std::size_t> counts = {1, 1};
  EXPECT_THROW(BuildUniqueValueHistogram(descending, counts), FatalError);
  const std::vector<double> repeated = {1.0, 1.0};
  EXPECT_THROW(BuildUniqueValueHistogram(repeated, counts), FatalError);
}

// CountModes reads bin counts only.
Histogram HistogramOf(const std::vector<std::uint64_t>& counts) {
  Histogram hist;
  for (const std::uint64_t c : counts) {
    hist.bins.push_back({0.0, 0.0, c});
    hist.total += c;
  }
  return hist;
}

TEST(HistogramTest, UnimodalCountsOneMode) {
  // Bell-shaped counts.
  EXPECT_EQ(CountModes(HistogramOf({1, 3, 8, 15, 22, 15, 8, 3, 1})), 1u);
}

TEST(HistogramTest, BimodalCountsTwoModes) {
  EXPECT_EQ(CountModes(HistogramOf(
                {2, 18, 30, 18, 2, 0, 0, 2, 14, 24, 14, 2})),
            2u);
}

}  // namespace
}  // namespace vrddram::stats
