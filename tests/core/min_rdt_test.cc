#include "core/min_rdt.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace vrddram::core {
namespace {

TEST(MinRdtTest, DefaultsMatchPaperProcedure) {
  const MinRdtSettings settings;
  EXPECT_EQ(settings.sample_sizes,
            (std::vector<std::size_t>{1, 3, 5, 10, 50, 500}));
  EXPECT_EQ(settings.margins.size(), 5u);
}

TEST(MinRdtTest, SentinelsIgnored) {
  std::vector<std::int64_t> series(100, 1000);
  series[0] = -1;
  MinRdtSettings settings;
  settings.sample_sizes = {1};
  const RowMinRdtResult result =
      AnalyzeRowSeries(BuildSortedFlips(series), settings);
  ASSERT_EQ(result.per_n.size(), 1u);
  EXPECT_DOUBLE_EQ(result.per_n[0].prob_find_min, 1.0);
}

TEST(MinRdtTest, ProbabilityGrowsWithN) {
  std::vector<std::int64_t> series;
  for (int i = 0; i < 1000; ++i) {
    series.push_back(2000 + (i * 13) % 500);
  }
  MinRdtSettings settings;
  const RowMinRdtResult result =
      AnalyzeRowSeries(BuildSortedFlips(series), settings);
  for (std::size_t i = 1; i < result.per_n.size(); ++i) {
    EXPECT_GE(result.per_n[i].prob_find_min + 0.02,
              result.per_n[i - 1].prob_find_min);
  }
  // Expected normalized min decreases toward 1 with more samples.
  EXPECT_GE(result.per_n.front().expected_norm_min,
            result.per_n.back().expected_norm_min);
  EXPECT_GE(result.per_n.back().expected_norm_min, 1.0);
}

TEST(MinRdtTest, MarginsWidenTheTarget) {
  std::vector<std::int64_t> series;
  for (int i = 0; i < 200; ++i) {
    series.push_back(1000 + i * 5);  // 1000..1995
  }
  MinRdtSettings settings;
  settings.sample_sizes = {1};
  const RowMinRdtResult result =
      AnalyzeRowSeries(BuildSortedFlips(series), settings);
  const auto& margins = result.per_n[0].prob_within_margin;
  ASSERT_EQ(margins.size(), 5u);
  for (std::size_t i = 1; i < margins.size(); ++i) {
    EXPECT_GE(margins[i], margins[i - 1]);
  }
}

TEST(MinRdtTest, AllSentinelsThrow) {
  const std::vector<std::int64_t> series(10, -1);
  MinRdtSettings settings;
  EXPECT_THROW(AnalyzeRowSeries(BuildSortedFlips(series), settings), FatalError);
}

}  // namespace
}  // namespace vrddram::core
