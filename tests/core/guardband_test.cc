#include "core/guardband.h"

#include <gtest/gtest.h>

#include <string>

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

TEST(GuardbandTest, LargerMarginsFlipNestedSubsetsWithinEveryRow) {
  // Each trial is one physical hammer whose flip points answer every
  // margin, so a row's flip sets are nested: walking per_margin from
  // 10% back to 50% (each step a larger margin, a lower hammer count),
  // no count may increase. S5 holds a row whose five baseline
  // measurements miss its min RDT by enough to flip cells even at the
  // 40% margin; independent per-margin trials broke the order there.
  GuardbandConfig config = TinyConfig();
  config.devices = {"M1", "S5"};
  config.rows_per_device = 9;
  config.trials = 1000;
  const auto outcomes = RunGuardbandStudy(config);
  ASSERT_FALSE(outcomes.empty());
  std::size_t rows_with_flips = 0;
  for (const RowGuardbandOutcome& outcome : outcomes) {
    ASSERT_EQ(outcome.per_margin.size(), kGuardbandMargins.size());
    if (outcome.per_margin.back().unique_bitflips > 0) {
      ++rows_with_flips;
    }
    for (std::size_t m = outcome.per_margin.size() - 1; m > 0; --m) {
      const MarginOutcome& smaller = outcome.per_margin[m];
      const MarginOutcome& larger = outcome.per_margin[m - 1];
      ASSERT_GT(larger.margin, smaller.margin);
      const std::string where = outcome.device + " row " +
                                std::to_string(outcome.row) + " at " +
                                std::to_string(larger.margin) + "%";
      EXPECT_LE(larger.unique_bitflips, smaller.unique_bitflips) << where;
      EXPECT_LE(larger.trials_with_flips, smaller.trials_with_flips)
          << where;
      EXPECT_LE(larger.chips_touched, smaller.chips_touched) << where;
      EXPECT_LE(larger.max_per_secded_codeword,
                smaller.max_per_secded_codeword)
          << where;
      EXPECT_LE(larger.max_per_chipkill_codeword,
                smaller.max_per_chipkill_codeword)
          << where;
    }
  }
  // Not vacuous: rows flip at the smallest margin.
  EXPECT_GT(rows_with_flips, 0u);
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
  // Three double steps of 0.10 sum to 0.30000000000000004, which
  // configured 902 at a min RDT of 1290; 30% below 1290 is 903.
  EXPECT_EQ(GuardbandHammerCount(1290, 30), 903u);
  // Never 0, which would configure no mitigation at all.
  EXPECT_EQ(GuardbandHammerCount(1, 50), 1u);
  EXPECT_THROW(GuardbandHammerCount(90, 100), FatalError);
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

TEST(GuardbandTest, ParallelOutcomesBitIdenticalToSerial) {
  // One shard per device: the outcomes concatenated in device order
  // must not depend on the worker count.
  GuardbandConfig config = TinyConfig();
  config.devices = {"M1", "S2"};
  config.trials = 200;
  auto run = [&](std::size_t threads) {
    config.threads = threads;
    return RunGuardbandStudy(config);
  };
  const std::vector<RowGuardbandOutcome> serial = run(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial.front().device, "M1");
  EXPECT_EQ(serial.back().device, "S2");
  for (const std::size_t threads : {2u, 8u}) {
    const std::vector<RowGuardbandOutcome> parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " workers";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const RowGuardbandOutcome& a = serial[i];
      const RowGuardbandOutcome& b = parallel[i];
      EXPECT_EQ(a.device, b.device);
      EXPECT_EQ(a.row, b.row);
      EXPECT_EQ(a.pattern, b.pattern);
      EXPECT_EQ(a.min_rdt, b.min_rdt);
      ASSERT_EQ(a.per_margin.size(), b.per_margin.size());
      for (std::size_t m = 0; m < a.per_margin.size(); ++m) {
        const MarginOutcome& x = a.per_margin[m];
        const MarginOutcome& y = b.per_margin[m];
        EXPECT_EQ(x.margin, y.margin);
        EXPECT_EQ(x.hammer_count, y.hammer_count);
        EXPECT_EQ(x.unique_bitflips, y.unique_bitflips);
        EXPECT_EQ(x.chips_touched, y.chips_touched);
        EXPECT_EQ(x.max_per_secded_codeword, y.max_per_secded_codeword);
        EXPECT_EQ(x.max_per_chipkill_codeword,
                  y.max_per_chipkill_codeword);
        EXPECT_EQ(x.trials_with_flips, y.trials_with_flips);
      }
    }
  }
}

TEST(GuardbandTest, InvalidConfigsThrow) {
  GuardbandConfig bad;
  EXPECT_THROW(RunGuardbandStudy(bad), FatalError);
  GuardbandConfig no_trials = TinyConfig();
  no_trials.trials = 0;
  EXPECT_THROW(RunGuardbandStudy(no_trials), FatalError);
  // Rows are split evenly over three regions: 0 and 10 used to run 3
  // and 9 rows without a word.
  for (const std::size_t rows : {0, 1, 10}) {
    GuardbandConfig uneven = TinyConfig();
    uneven.rows_per_device = rows;
    try {
      RunGuardbandStudy(uneven);
      ADD_FAILURE() << "rows_per_device=" << rows << " accepted";
    } catch (const FatalError& e) {
      EXPECT_NE(std::string(e.what()).find("got " + std::to_string(rows)),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace vrddram::core
