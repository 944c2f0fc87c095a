#include "core/guardband.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vrddram::core {
namespace {

GuardbandConfig TinyConfig() {
  GuardbandConfig config;
  config.devices = {"M1"};
  config.rows_per_device = 3;
  config.trials = 400;
  config.patterns = {dram::DataPattern::kCheckered0};
  config.scan_rows_per_region = 32;
  return config;
}

TEST(GuardbandTest, SmallerMarginsFlipAtLeastAsManyCells) {
  const auto outcomes = RunGuardbandStudy(TinyConfig());
  ASSERT_FALSE(outcomes.empty());
  std::size_t at_largest_margin = 0;
  std::size_t at_smallest_margin = 0;
  for (const RowGuardbandOutcome& outcome : outcomes) {
    EXPECT_GT(outcome.min_rdt, 0u);
    ASSERT_EQ(outcome.per_margin.size(), 5u);
    // Margins are ordered 50% ... 10%: in aggregate, shrinking the
    // margin (hammering closer to the min RDT) flips at least as many
    // unique cells.
    at_largest_margin += outcome.per_margin.front().unique_bitflips;
    at_smallest_margin += outcome.per_margin.back().unique_bitflips;
  }
  EXPECT_GE(at_smallest_margin, at_largest_margin);
}

TEST(GuardbandTest, HammerCountsMatchMargins) {
  const auto outcomes = RunGuardbandStudy(TinyConfig());
  ASSERT_FALSE(outcomes.empty());
  for (const RowGuardbandOutcome& outcome : outcomes) {
    for (const MarginOutcome& per : outcome.per_margin) {
      EXPECT_EQ(per.hammer_count,
                outcome.min_rdt * (100 - per.margin) / 100);
    }
  }
  // 90 * (1.0 - 0.30) is 62.99999... in binary floating point; the
  // hammer count 30% below a min RDT of 90 is exactly 63.
  EXPECT_EQ(GuardbandHammerCount(90, 30), 63u);
  EXPECT_THROW(GuardbandHammerCount(90, 101), FatalError);
}

TEST(GuardbandTest, CodewordCountsBoundedByBitflips) {
  const auto outcomes = RunGuardbandStudy(TinyConfig());
  for (const RowGuardbandOutcome& outcome : outcomes) {
    for (const MarginOutcome& per : outcome.per_margin) {
      EXPECT_LE(per.max_per_secded_codeword, per.unique_bitflips);
      EXPECT_LE(per.max_per_chipkill_codeword, per.unique_bitflips);
      EXPECT_LE(per.chips_touched, per.unique_bitflips);
      if (per.unique_bitflips > 0) {
        EXPECT_GE(per.chips_touched, 1u);
        EXPECT_GE(per.max_per_secded_codeword, 1u);
      }
    }
  }
}

TEST(GuardbandTest, HistogramAndBerHelpers) {
  const auto outcomes = RunGuardbandStudy(TinyConfig());
  const auto hist = BitflipHistogramAtMargin(outcomes, 10);
  std::size_t rows_in_hist = 0;
  for (const auto& [bitflips, count] : hist) {
    rows_in_hist += count;
  }
  EXPECT_EQ(rows_in_hist, outcomes.size());

  const double ber = WorstBitErrorRate(outcomes, 10, 65536);
  EXPECT_GE(ber, 0.0);
  EXPECT_LT(ber, 0.01);
  EXPECT_THROW(WorstBitErrorRate(outcomes, 10, 0), FatalError);
}

TEST(GuardbandTest, InvalidConfigsThrow) {
  GuardbandConfig bad;
  EXPECT_THROW(RunGuardbandStudy(bad), FatalError);
  GuardbandConfig no_trials = TinyConfig();
  no_trials.trials = 0;
  EXPECT_THROW(RunGuardbandStudy(no_trials), FatalError);
}

}  // namespace
}  // namespace vrddram::core
