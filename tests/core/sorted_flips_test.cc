#include "core/sorted_flips.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/rdt_profiler.h"

namespace vrddram::core {
namespace {

// The table by definition: drop the sentinels, sort the rest, walk the
// runs of equal values.
SortedFlips SortAndWalk(std::span<const std::int64_t> series) {
  std::vector<std::int64_t> sorted;
  SortedFlips out;
  for (const std::int64_t v : series) {
    if (v >= 0) {
      sorted.push_back(v);
    } else {
      ++out.no_flips;
    }
  }
  std::sort(sorted.begin(), sorted.end());
  out.size = sorted.size();
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) {
      out.run_values.push_back(sorted[i]);
      out.run_counts.push_back(0);
    }
    ++out.run_counts.back();
  }
  return out;
}

// `length` measurements drawn from `distinct` values (a sweep grid, or
// values scattered up to 2^40, 0 included), with a share of sentinels
// and of repeats of the previous measurement.
std::vector<std::int64_t> RandomSeries(Rng& rng, std::size_t length,
                                       std::size_t distinct, bool grid) {
  std::vector<std::int64_t> pool;
  for (std::size_t i = 0; i < distinct; ++i) {
    pool.push_back(grid ? 4000 + 37 * static_cast<std::int64_t>(i)
                        : static_cast<std::int64_t>(
                              rng.NextBelow(std::uint64_t{1} << 40)));
  }
  pool[0] = grid ? pool[0] : 0;
  const double noflip = rng.NextDouble() * 0.3;
  std::vector<std::int64_t> series;
  series.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.NextBernoulli(noflip)) {
      series.push_back(kNoFlip);
    } else if (!series.empty() && rng.NextBernoulli(0.2)) {
      series.push_back(series.back());
    } else {
      series.push_back(pool[rng.NextBelow(pool.size())]);
    }
  }
  return series;
}

TEST(SortedFlipsTest, MatchesSortAndWalkOnRandomSeries) {
  Rng rng(0xf11b5);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t length = rng.NextBelow(3000);
    const std::size_t distinct = 1 + rng.NextBelow(trial % 2 == 0 ? 40 : 5000);
    const std::vector<std::int64_t> series =
        RandomSeries(rng, length, distinct, trial % 3 == 0);
    EXPECT_EQ(BuildSortedFlips(series), SortAndWalk(series))
        << "trial " << trial << ": " << length << " measurements of "
        << distinct << " values";
  }
  // Paper scale, and enough distinct values to grow the table often.
  for (const std::size_t distinct : {7u, 5000u}) {
    const std::vector<std::int64_t> series =
        RandomSeries(rng, 100000, distinct, false);
    EXPECT_EQ(BuildSortedFlips(series), SortAndWalk(series)) << distinct;
  }
  for (const std::vector<std::int64_t>& edge :
       {std::vector<std::int64_t>{}, std::vector<std::int64_t>{0},
        std::vector<std::int64_t>{kNoFlip, 0, kNoFlip, 0},
        std::vector<std::int64_t>(1000, std::int64_t{1} << 40)}) {
    EXPECT_EQ(BuildSortedFlips(edge), SortAndWalk(edge)) << edge.size();
  }
}

TEST(SortedFlipsTest, DropsSentinelsAndCollapsesRuns) {
  const std::vector<std::int64_t> series = {300, kNoFlip, 100, 300, 200,
                                            100, kNoFlip, 300};
  const SortedFlips flips = BuildSortedFlips(series);
  EXPECT_EQ(flips.size, 6u);
  EXPECT_EQ(flips.no_flips, 2u);
  EXPECT_EQ(flips.measurements(), series.size());
  EXPECT_EQ(flips.run_values, (std::vector<std::int64_t>{100, 200, 300}));
  EXPECT_EQ(flips.run_counts, (std::vector<std::size_t>{2, 1, 3}));
  const std::vector<std::int64_t> by_rank = {100, 100, 200, 300, 300, 300};
  for (std::size_t i = 0; i < by_rank.size(); ++i) {
    EXPECT_EQ(flips.AtRank(i), by_rank[i]) << i;
  }
}

TEST(SortedFlipsTest, NoFlipsGiveAnEmptyTable) {
  const std::vector<std::int64_t> series(5, kNoFlip);
  const SortedFlips flips = BuildSortedFlips(series);
  EXPECT_EQ(flips.size, 0u);
  EXPECT_TRUE(flips.run_values.empty());
  EXPECT_TRUE(flips.run_counts.empty());
  EXPECT_EQ(flips.no_flips, 5u);
  EXPECT_THROW(ComputeMoments(flips), FatalError);
}

TEST(SortedFlipsTest, MomentsAreTheExactValuesRoundedOnce) {
  const FlipMoments m =
      ComputeMoments(BuildSortedFlips(std::vector<std::int64_t>{
          4, kNoFlip, 1, 3, 2}));
  // Σx = 10, Σx² = 30, n = 4: mean 5/2, variance (120 - 100)/12 = 5/3.
  EXPECT_EQ(m.mean, 2.5);
  EXPECT_EQ(m.stddev, std::sqrt(5.0 / 3.0));
  EXPECT_EQ(m.cv, std::sqrt(5.0 / 3.0) / 2.5);

  // Population variance 4, sample variance 32/7.
  const FlipMoments known =
      ComputeMoments(BuildSortedFlips(std::vector<std::int64_t>{
          2, 4, 4, 4, 5, 5, 7, 9}));
  EXPECT_EQ(known.mean, 5.0);
  EXPECT_EQ(known.stddev, std::sqrt(32.0 / 7.0));

  const FlipMoments one =
      ComputeMoments(BuildSortedFlips(std::vector<std::int64_t>{7}));
  EXPECT_EQ(one.mean, 7.0);
  EXPECT_EQ(one.stddev, 0.0);
  EXPECT_EQ(one.cv, 0.0);
}

TEST(SortedFlipsTest, MomentsDoNotDependOnMeasurementOrder) {
  // Summed in measurement order, (x - mean)^2 rounds differently for
  // these two orders; the closed form reads only the runs.
  std::vector<std::int64_t> series;
  for (std::int64_t i = 0; i < 1000; ++i) {
    series.push_back(40000 + (i * 7919) % 997);
  }
  const FlipMoments forward = ComputeMoments(BuildSortedFlips(series));
  std::reverse(series.begin(), series.end());
  const FlipMoments backward = ComputeMoments(BuildSortedFlips(series));
  EXPECT_EQ(forward.mean, backward.mean);
  EXPECT_EQ(forward.stddev, backward.stddev);
  EXPECT_EQ(forward.cv, backward.cv);
}

TEST(SortedFlipsTest, MomentsRejectValuesTooLargeForExactSums) {
  SortedFlips flips;
  flips.run_values = {std::int64_t{1} << 62};
  flips.run_counts = {2};
  flips.size = 2;
  EXPECT_THROW(ComputeMoments(flips), FatalError);
}

}  // namespace
}  // namespace vrddram::core
