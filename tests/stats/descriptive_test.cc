#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace vrddram::stats {
namespace {

TEST(DescriptiveTest, MeanOfKnownValues) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
}

TEST(DescriptiveTest, MeanOfEmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(Mean(xs), FatalError);
}

TEST(DescriptiveTest, PercentileLinearInterpolation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25.0), 1.75);
}

TEST(DescriptiveTest, PercentileOutOfRangeThrows) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(Percentile(xs, -1.0), FatalError);
  EXPECT_THROW(Percentile(xs, 101.0), FatalError);
}

TEST(DescriptiveTest, MedianOddAndEven) {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Median(odd), 3.0);
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Median(even), 2.5);
}

// Box stats of a sorted vector, read by rank.
BoxStats SortedBox(const std::vector<double>& sorted, double mean) {
  return ComputeBoxStats(
      sorted.size(), [&sorted](std::size_t i) { return sorted[i]; }, mean);
}

// Box stats follow the paper's footnote 6: Q1/Q3 are the medians of
// the first/second halves of the ordered data.
TEST(DescriptiveTest, BoxStatsFootnoteSixConvention) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const BoxStats box = SortedBox(xs, Mean(xs));
  EXPECT_DOUBLE_EQ(box.min, 1.0);
  EXPECT_DOUBLE_EQ(box.max, 9.0);
  EXPECT_DOUBLE_EQ(box.median, 5.0);
  // First half: 1 2 3 4 -> 2.5; second half: 6 7 8 9 -> 7.5.
  EXPECT_DOUBLE_EQ(box.q1, 2.5);
  EXPECT_DOUBLE_EQ(box.q3, 7.5);
  EXPECT_DOUBLE_EQ(box.mean, 5.0);
}

TEST(DescriptiveTest, BoxStatsEvenCount) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6};
  const BoxStats box = SortedBox(xs, Mean(xs));
  EXPECT_DOUBLE_EQ(box.q1, 2.0);
  EXPECT_DOUBLE_EQ(box.median, 3.5);
  EXPECT_DOUBLE_EQ(box.q3, 5.0);
}

TEST(DescriptiveTest, BoxStatsSingleton) {
  const std::vector<double> xs = {7.0};
  const BoxStats box = SortedBox(xs, 7.0);
  EXPECT_DOUBLE_EQ(box.min, 7.0);
  EXPECT_DOUBLE_EQ(box.q1, 7.0);
  EXPECT_DOUBLE_EQ(box.q3, 7.0);
  EXPECT_DOUBLE_EQ(box.max, 7.0);
}

// The mean is the caller's: the box reports it as given.
TEST(DescriptiveTest, BoxStatsKeepsTheCallersMean) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_EQ(SortedBox(xs, 2.25).mean, 2.25);
  EXPECT_THROW(SortedBox({}, 0.0), FatalError);
}

TEST(DescriptiveTest, ToDoubles) {
  const std::vector<std::int64_t> xs = {1, -2, 3};
  const std::vector<double> ds = ToDoubles(xs);
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_DOUBLE_EQ(ds[1], -2.0);
}

// Percentile must not mutate or depend on input order.
class PercentileOrderTest : public ::testing::TestWithParam<double> {};

TEST_P(PercentileOrderTest, OrderInvariant) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> shuffled = {5, 1, 8, 3, 7, 2, 6, 4};
  const double p = GetParam();
  EXPECT_DOUBLE_EQ(Percentile(sorted, p), Percentile(shuffled, p));
}

INSTANTIATE_TEST_SUITE_P(Percentiles, PercentileOrderTest,
                         ::testing::Values(0.0, 10.0, 25.0, 50.0, 75.0,
                                           90.0, 99.0, 100.0));

}  // namespace
}  // namespace vrddram::stats
