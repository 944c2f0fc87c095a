#include "stats/run_length.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "stats/series_stats_oracle.h"

namespace vrddram::stats {
namespace {

TEST(RunLengthTest, EmptySeries) {
  const std::vector<std::int64_t> xs;
  const RunLengthHistogram hist = ComputeRunLengths(xs);
  EXPECT_TRUE(hist.counts.empty());
  EXPECT_EQ(hist.TotalRuns(), 0u);
  EXPECT_EQ(hist.LongestRun(), 0u);
  EXPECT_DOUBLE_EQ(hist.ImmediateChangeFraction(), 0.0);
}

TEST(RunLengthTest, SingleValue) {
  const std::vector<std::int64_t> xs = {5};
  const RunLengthHistogram hist = ComputeRunLengths(xs);
  EXPECT_EQ(hist.TotalRuns(), 1u);
  EXPECT_EQ(hist.counts.at(1), 1u);
}

TEST(RunLengthTest, KnownRuns) {
  // Runs: {1,1}, {2}, {3,3,3}, {2} -> lengths 2,1,3,1.
  const std::vector<std::int64_t> xs = {1, 1, 2, 3, 3, 3, 2};
  const RunLengthHistogram hist = ComputeRunLengths(xs);
  EXPECT_EQ(hist.TotalRuns(), 4u);
  EXPECT_EQ(hist.counts.at(1), 2u);
  EXPECT_EQ(hist.counts.at(2), 1u);
  EXPECT_EQ(hist.counts.at(3), 1u);
  EXPECT_EQ(hist.LongestRun(), 3u);
  EXPECT_DOUBLE_EQ(hist.ImmediateChangeFraction(), 0.5);
}

TEST(RunLengthTest, AllSame) {
  const std::vector<std::int64_t> xs(10, 7);
  const RunLengthHistogram hist = ComputeRunLengths(xs);
  EXPECT_EQ(hist.TotalRuns(), 1u);
  EXPECT_EQ(hist.LongestRun(), 10u);
  EXPECT_DOUBLE_EQ(hist.ImmediateChangeFraction(), 0.0);
}

TEST(RunLengthTest, AllDifferent) {
  const std::vector<std::int64_t> xs = {1, 2, 3, 4, 5};
  const RunLengthHistogram hist = ComputeRunLengths(xs);
  EXPECT_EQ(hist.TotalRuns(), 5u);
  EXPECT_DOUBLE_EQ(hist.ImmediateChangeFraction(), 1.0);
}

TEST(RunLengthTest, MergeAggregates) {
  RunLengthHistogram a = ComputeRunLengths(
      std::vector<std::int64_t>{1, 1, 2});
  const RunLengthHistogram b = ComputeRunLengths(
      std::vector<std::int64_t>{3, 3, 3});
  Merge(a, b);
  EXPECT_EQ(a.counts.at(1), 1u);
  EXPECT_EQ(a.counts.at(2), 1u);
  EXPECT_EQ(a.counts.at(3), 1u);
  EXPECT_EQ(a.TotalRuns(), 3u);
}

TEST(RunLengthTest, MatchesOneMapIncrementPerRun) {
  Rng rng(0x5a11);
  for (int trial = 0; trial < 50; ++trial) {
    // Short runs mostly, long ones sometimes; a few values only.
    const std::size_t length = rng.NextBelow(5000);
    const double repeat = trial % 5 == 0 ? 0.99 : 0.3;
    std::vector<std::int64_t> xs;
    for (std::size_t i = 0; i < length; ++i) {
      xs.push_back(!xs.empty() && rng.NextBernoulli(repeat)
                       ? xs.back()
                       : static_cast<std::int64_t>(rng.NextBelow(4)));
    }
    EXPECT_EQ(ComputeRunLengths(xs).counts, oracle::MapRunLengths(xs).counts)
        << "trial " << trial;
  }
  const std::vector<std::int64_t> one_run(100000, 7);
  EXPECT_EQ(ComputeRunLengths(one_run).counts,
            oracle::MapRunLengths(one_run).counts);
}

}  // namespace
}  // namespace vrddram::stats
