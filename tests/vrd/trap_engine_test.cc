#include "vrd/trap_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dram/cell_encoding.h"
#include "dram/organization.h"

namespace vrddram::vrd {
namespace {

FaultProfile TestProfile() {
  FaultProfile profile;
  profile.median_rdt = 10000.0;
  profile.sigma_rdt = 0.3;
  profile.weak_cells_mean = 6.0;
  profile.k_press = 1.0;
  profile.t_ras = 35 * units::kNanosecond;
  profile.measurement_noise_sigma = 0.0;  // deterministic for tests
  profile.fast_trap_mean = 0.0;           // no temporal variation
  profile.rare_trap_prob = 0.0;
  return profile;
}

dram::Organization SmallOrg() {
  dram::Organization org;
  org.num_banks = 2;
  org.rows_per_bank = 256;
  org.row_bytes = 1024;
  return org;
}

std::vector<dram::BitFlip> FlipsOf(dram::ReadDisturbanceModel& model,
                                   const dram::VictimContext& ctx) {
  std::vector<dram::BitFlip> out;
  model.Evaluate(ctx, out);
  return out;
}

class TrapEngineTest : public ::testing::Test {
 protected:
  TrapEngineTest()
      : engine_(TestProfile(), /*seed=*/123, SmallOrg()),
        encoding_(/*seed=*/7, /*anti_fraction=*/0.0) {}

  /// A physical row with at least one weak cell (searching upward).
  dram::PhysicalRow WeakRow(TrapFaultEngine& engine) {
    for (dram::RowAddr r = 1; r < 255; ++r) {
      if (!engine.RowStateOf(0, dram::PhysicalRow{r}).cells.empty()) {
        return dram::PhysicalRow{r};
      }
    }
    ADD_FAILURE() << "no weak row";
    return dram::PhysicalRow{1};
  }

  TrapFaultEngine engine_;
  dram::CellEncodingLayout encoding_;  // all true cells
};

TEST_F(TrapEngineTest, RowStateDeterministicAcrossInstances) {
  TrapFaultEngine other(TestProfile(), /*seed=*/123, SmallOrg());
  const auto& a = engine_.RowStateOf(0, dram::PhysicalRow{10});
  const auto& b = other.RowStateOf(0, dram::PhysicalRow{10});
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].bit_index, b.cells[i].bit_index);
    EXPECT_DOUBLE_EQ(a.cells[i].threshold, b.cells[i].threshold);
  }
}

TEST_F(TrapEngineTest, DifferentSeedsDifferentPopulations) {
  TrapFaultEngine other(TestProfile(), /*seed=*/124, SmallOrg());
  int differing = 0;
  for (dram::RowAddr r = 0; r < 32; ++r) {
    const auto& a = engine_.RowStateOf(0, dram::PhysicalRow{r});
    const auto& b = other.RowStateOf(0, dram::PhysicalRow{r});
    if (a.cells.size() != b.cells.size()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST_F(TrapEngineTest, NoFlipsWithoutDose) {
  const dram::PhysicalRow row = WeakRow(engine_);
  const std::vector<std::uint8_t> data(1024, 0xFF);
  dram::VictimContext ctx;
  ctx.bank = 0;
  ctx.row = row;
  ctx.data = data;
  ctx.encoding = &encoding_;
  ctx.now = 0;
  EXPECT_TRUE(FlipsOf(engine_, ctx).empty());
}

TEST_F(TrapEngineTest, EnoughHammersFlipAndRestoreClears) {
  const dram::PhysicalRow row = WeakRow(engine_);
  const std::vector<std::uint8_t> victim_data(1024, 0xFF);
  const std::vector<std::uint8_t> aggr_data(1024, 0x00);
  const Tick t_ras = TestProfile().t_ras;

  engine_.OnActivations(0, dram::PhysicalRow{row.value - 1}, 200000,
                        t_ras, 1000, 50.0, aggr_data);
  engine_.OnActivations(0, dram::PhysicalRow{row.value + 1}, 200000,
                        t_ras, 1000, 50.0, aggr_data);

  dram::VictimContext ctx;
  ctx.bank = 0;
  ctx.row = row;
  ctx.data = victim_data;
  ctx.encoding = &encoding_;
  ctx.now = 1000;
  EXPECT_FALSE(FlipsOf(engine_, ctx).empty());

  engine_.OnRestore(0, row, 2000);
  ctx.now = 2000;
  EXPECT_TRUE(FlipsOf(engine_, ctx).empty());
}

TEST_F(TrapEngineTest, AnalyticThresholdMatchesDoseEvaluation) {
  const dram::PhysicalRow row = WeakRow(engine_);
  const std::uint8_t victim_byte = 0xFF;
  const std::uint8_t aggr_byte = 0x00;
  const Tick t_ras = TestProfile().t_ras;
  const double hc = engine_.MinFlipHammerCount(
      0, row, victim_byte, aggr_byte, t_ras, 50.0, encoding_, 0);
  ASSERT_GT(hc, 0.0);

  const std::vector<std::uint8_t> victim_data(1024, victim_byte);
  const std::vector<std::uint8_t> aggr_data(1024, aggr_byte);
  auto hammer_and_check = [&](std::uint64_t count) {
    TrapFaultEngine fresh(TestProfile(), /*seed=*/123, SmallOrg());
    fresh.OnActivations(0, dram::PhysicalRow{row.value - 1}, count,
                        t_ras, 0, 50.0, aggr_data);
    fresh.OnActivations(0, dram::PhysicalRow{row.value + 1}, count,
                        t_ras, 0, 50.0, aggr_data);
    dram::VictimContext ctx;
    ctx.bank = 0;
    ctx.row = row;
    ctx.data = victim_data;
    ctx.encoding = &encoding_;
    ctx.now = 0;
    return !FlipsOf(fresh, ctx).empty();
  };

  EXPECT_FALSE(hammer_and_check(static_cast<std::uint64_t>(hc * 0.98)));
  EXPECT_TRUE(hammer_and_check(static_cast<std::uint64_t>(hc * 1.02)));
}

TEST_F(TrapEngineTest, RowPressLowersThreshold) {
  const dram::PhysicalRow row = WeakRow(engine_);
  const Tick t_ras = TestProfile().t_ras;
  const Tick t_refi = 7800 * units::kNanosecond;
  const double hc_fast = engine_.MinFlipHammerCount(
      0, row, 0xFF, 0x00, t_ras, 50.0, encoding_, 0);
  const double hc_press = engine_.MinFlipHammerCount(
      0, row, 0xFF, 0x00, t_refi, 50.0, encoding_, 0);
  ASSERT_GT(hc_fast, 0.0);
  ASSERT_GT(hc_press, 0.0);
  EXPECT_LT(hc_press, hc_fast / 2.0)
      << "keeping the aggressor open must amplify disturbance";
}

TEST_F(TrapEngineTest, DischargedVictimCellsAreHarderToFlip) {
  const dram::PhysicalRow row = WeakRow(engine_);
  const Tick t_ras = TestProfile().t_ras;
  const double hc_charged = engine_.MinFlipHammerCount(
      0, row, 0xFF, 0x00, t_ras, 50.0, encoding_, 0);
  const double hc_discharged = engine_.MinFlipHammerCount(
      0, row, 0x00, 0xFF, t_ras, 50.0, encoding_, 0);
  ASSERT_GT(hc_charged, 0.0);
  ASSERT_GT(hc_discharged, 0.0);
  EXPECT_GT(hc_discharged, hc_charged);
}

TEST_F(TrapEngineTest, DistanceTwoCouplingIsMuchWeaker) {
  const dram::PhysicalRow row = WeakRow(engine_);
  const Tick t_ras = TestProfile().t_ras;
  const std::vector<std::uint8_t> aggr_data(1024, 0x00);
  const std::vector<std::uint8_t> victim_data(1024, 0xFF);
  const double hc = engine_.MinFlipHammerCount(
      0, row, 0xFF, 0x00, t_ras, 50.0, encoding_, 0);

  TrapFaultEngine fresh(TestProfile(), /*seed=*/123, SmallOrg());
  const auto count = static_cast<std::uint64_t>(hc * 2.0);
  fresh.OnActivations(0, dram::PhysicalRow{row.value - 2}, count, t_ras,
                      0, 50.0, aggr_data);
  fresh.OnActivations(0, dram::PhysicalRow{row.value + 2}, count, t_ras,
                      0, 50.0, aggr_data);
  dram::VictimContext ctx;
  ctx.bank = 0;
  ctx.row = row;
  ctx.data = victim_data;
  ctx.encoding = &encoding_;
  ctx.now = 0;
  EXPECT_TRUE(FlipsOf(fresh, ctx).empty());
}

TEST_F(TrapEngineTest, DeterministicProfileYieldsConstantSamples) {
  const dram::PhysicalRow row = WeakRow(engine_);
  const Tick t_ras = TestProfile().t_ras;
  const double first = engine_.MinFlipHammerCount(
      0, row, 0xFF, 0x00, t_ras, 50.0, encoding_, 0);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_DOUBLE_EQ(engine_.MinFlipHammerCount(0, row, 0xFF, 0x00,
                                                t_ras, 50.0, encoding_,
                                                i * units::kSecond),
                     first);
  }
}

TEST(TrapEngineVrdTest, TrapsCreateTemporalVariation) {
  FaultProfile profile = TestProfile();
  profile.fast_trap_mean = 3.0;
  profile.fast_weight_med = 0.02;
  TrapFaultEngine engine(profile, /*seed=*/5, SmallOrg());
  const dram::CellEncodingLayout encoding(7, 0.0);

  dram::PhysicalRow row{0};
  bool found = false;
  for (dram::RowAddr r = 1; r < 255 && !found; ++r) {
    for (const auto& cell :
         engine.RowStateOf(0, dram::PhysicalRow{r}).cells) {
      if (cell.trap_count > 0) {
        row = dram::PhysicalRow{r};
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);

  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back(engine.MinFlipHammerCount(
        0, row, 0xFF, 0x00, profile.t_ras, 50.0, encoding,
        static_cast<Tick>(i) * 100 * units::kMillisecond));
  }
  const double min = *std::min_element(samples.begin(), samples.end());
  const double max = *std::max_element(samples.begin(), samples.end());
  EXPECT_GT(max, min) << "trap dynamics must vary the threshold";
}

TEST(TrapEngineVrdTest, MeasurementNoiseCreatesVariation) {
  FaultProfile profile = TestProfile();
  profile.measurement_noise_sigma = 0.02;
  TrapFaultEngine engine(profile, /*seed=*/6, SmallOrg());
  const dram::CellEncodingLayout encoding(7, 0.0);
  dram::PhysicalRow row{0};
  for (dram::RowAddr r = 1; r < 255; ++r) {
    if (!engine.RowStateOf(0, dram::PhysicalRow{r}).cells.empty()) {
      row = dram::PhysicalRow{r};
      break;
    }
  }
  ASSERT_GT(row.value, 0u);
  std::vector<double> samples;
  for (int i = 0; i < 100; ++i) {
    samples.push_back(engine.MinFlipHammerCount(
        0, row, 0xFF, 0x00, profile.t_ras, 50.0, encoding, i));
  }
  EXPECT_GT(*std::max_element(samples.begin(), samples.end()),
            *std::min_element(samples.begin(), samples.end()));
}

TEST(TrapEngineAuxTest, PoissonSamplerMatchesMean) {
  Rng rng(9);
  const PoissonSampler three(3.0);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(three(rng));
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
  const PoissonSampler zero(0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zero(rng), 0u);
  }
}

TEST(TrapEngineAuxTest, PressFactorAnchoredAtTras) {
  FaultProfile profile;
  profile.k_press = 2.0;
  profile.t_ras = 32 * units::kNanosecond;
  EXPECT_DOUBLE_EQ(profile.PressFactor(profile.t_ras), 1.0);
  EXPECT_GT(profile.PressFactor(7800 * units::kNanosecond), 1.0);
  EXPECT_GT(profile.PressFactor(70200 * units::kNanosecond),
            profile.PressFactor(7800 * units::kNanosecond));
}

}  // namespace
}  // namespace vrddram::vrd
