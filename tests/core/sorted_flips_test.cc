#include "core/sorted_flips.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/rdt_profiler.h"

namespace vrddram::core {
namespace {

TEST(SortedFlipsTest, DropsSentinelsAndCollapsesRuns) {
  const std::vector<std::int64_t> series = {300, kNoFlip, 100, 300, 200,
                                            100, kNoFlip, 300};
  const SortedFlips flips = BuildSortedFlips(series);
  EXPECT_EQ(flips.size, 6u);
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
}

}  // namespace
}  // namespace vrddram::core
