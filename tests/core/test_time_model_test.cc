#include "core/test_time_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/error.h"

namespace vrddram::core {
namespace {

TEST(TestTimeModelTest, SingleMeasurementTimeDominatedByHammers) {
  const TestTimeModel model;
  const Tick t_ras = model.timing().tRAS;
  const TestCost at_1k = model.MeasurementCost(1000, t_ras);
  const TestCost at_10k = model.MeasurementCost(10000, t_ras);
  EXPECT_GT(at_1k.seconds, 0.0);
  // 10x the hammers ~ close to 10x the hammer phase.
  EXPECT_GT(at_10k.seconds, 5 * at_1k.seconds);
  EXPECT_LT(at_10k.seconds, 11 * at_1k.seconds);
}

TEST(TestTimeModelTest, HammerPhaseArithmetic) {
  const TestTimeModel model;
  const Tick t_ras = model.timing().tRAS;
  const TestCost a = model.MeasurementCost(1000, t_ras);
  const TestCost b = model.MeasurementCost(2000, t_ras);
  // Difference is exactly 1000 extra hammers: 2*(tAggOn + tRP) each.
  EXPECT_NEAR(b.seconds - a.seconds,
              units::ToSeconds(1000 * 2 * (t_ras + model.timing().tRP)),
              1e-12);
}

TEST(TestTimeModelTest, RowPressMeasurementsAreFarSlower) {
  const TestTimeModel model;
  const TestCost hammer =
      model.MeasurementCost(1000, model.timing().tRAS);
  const TestCost press =
      model.MeasurementCost(1000, units::FromUs(7.8));
  // 7.8 us per activation vs ~46 ns: two orders of magnitude.
  EXPECT_GT(press.seconds, 50 * hammer.seconds);
}

TEST(TestTimeModelTest, MultiBankAmortizesPerRowCost) {
  const TestTimeModel model;
  const Tick t_ras = model.timing().tRAS;
  const TestCost one = model.MeasurementCost(1000, t_ras, 1);
  const TestCost sixteen = model.MeasurementCost(1000, t_ras, 16);
  // 16 banks tested "simultaneously" cost far less than 16x one bank.
  EXPECT_LT(sixteen.seconds, 8 * one.seconds);
  EXPECT_GT(sixteen.seconds, one.seconds);
  // Energy grows with the number of banks doing work, but far
  // sublinearly: the background draw is shared and tFAW caps the
  // activation concurrency at ~4 banks' worth.
  EXPECT_GT(sixteen.energy, 2 * one.energy);
  EXPECT_LT(sixteen.energy, 16 * one.energy);
}

TEST(TestTimeModelTest, AppendixAHeadlineNumbers) {
  // Appendix A: 1K RDT measurements for all rows of an entire chip
  // (32 banks in parallel, 128K rows per bank, hammer count 1K,
  // tAggOn = tRAS) takes ~15 hours; 100K measurements ~61 days.
  const TestTimeModel model;
  const Tick t_ras = model.timing().tRAS;
  const TestCost c1k =
      model.CampaignCost(1u << 17, 1000, 1000, t_ras, 32);
  const double hours = c1k.seconds / 3600.0;
  EXPECT_GT(hours, 5.0);
  EXPECT_LT(hours, 40.0);

  const TestCost c100k =
      model.CampaignCost(1u << 17, 100000, 1000, t_ras, 32);
  const double days = c100k.seconds / 86400.0;
  EXPECT_GT(days, 20.0);
  EXPECT_LT(days, 150.0);
  // Energy in the megajoule range for the 100K campaign.
  EXPECT_GT(c100k.energy, 1e6);
  EXPECT_LT(c100k.energy, 1e8);
}

TEST(TestTimeModelTest, RowPressCampaignTakesMonths) {
  // Appendix A: RowPress testing (tAggOn = 7.8 us) for 1K measurements
  // of a full chip takes ~48 days.
  const TestTimeModel model;
  const TestCost cost =
      model.CampaignCost(1u << 17, 1000, 1000, units::FromUs(7.8), 32);
  const double days = cost.seconds / 86400.0;
  EXPECT_GT(days, 10.0);
  EXPECT_LT(days, 200.0);
}

TEST(TestTimeModelTest, CampaignScalesLinearly) {
  const TestTimeModel model;
  const Tick t_ras = model.timing().tRAS;
  const TestCost one_row = model.CampaignCost(1, 100, 1000, t_ras);
  const TestCost ten_rows = model.CampaignCost(10, 100, 1000, t_ras);
  EXPECT_NEAR(ten_rows.seconds, 10.0 * one_row.seconds,
              one_row.seconds * 0.01);
  EXPECT_NEAR(ten_rows.energy, 10.0 * one_row.energy,
              one_row.energy * 0.01);
}

TEST(TestTimeModelTest, CommandTableStructure) {
  const TestTimeModel model;
  // Table 4 (single bank): 3 init groups of 4 rows + 4 hammer rows +
  // 3 readback rows = 19 rows.
  // Printed, a header line and a rule line precede them.
  for (const std::uint32_t banks : {1u, 16u}) {
    std::ostringstream os;
    model.CommandTable(1000, banks).Print(os);
    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 21) << banks;
  }
}

TEST(TestTimeModelTest, InvalidArgumentsThrow) {
  const TestTimeModel model;
  EXPECT_THROW(model.MeasurementCost(1000, model.timing().tRAS, 0),
               FatalError);
  EXPECT_THROW(model.MeasurementCost(1000, units::FromNs(10.0)),
               FatalError);
}

}  // namespace
}  // namespace vrddram::core
