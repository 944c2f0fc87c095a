// Parameterized property tests across the full catalog: every device
// instantiates, finds a victim per Alg. 1, exhibits VRD, and stays
// deterministic under its seed.
#include <gtest/gtest.h>

#include "core/rdt_profiler.h"
#include "core/series_analysis.h"
#include "vrd/chip_catalog.h"

namespace vrddram::vrd {
namespace {

class CatalogDeviceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(CatalogDeviceTest, InstantiatesWithSaneGeometry) {
  const TestedChip chip = MakeTestedChip(GetParam());
  EXPECT_GT(chip.device.org.rows_per_bank, 1024u);
  EXPECT_GE(chip.device.org.num_banks, 8u);
  EXPECT_GT(chip.fault.median_rdt, 1000.0);
  EXPECT_GT(chip.fault.k_press, 0.0);
  // The standard determines the defensive hardware: only HBM2 chips
  // carry on-die ECC.
  EXPECT_EQ(chip.device.has_on_die_ecc,
            chip.spec.standard == dram::Standard::kHbm2);
}

TEST_P(CatalogDeviceTest, FindsAVictimAndExhibitsVrd) {
  auto device = BuildDevice(GetParam(), 2025);
  if (device->config().has_on_die_ecc) {
    device->SetOnDieEccEnabled(false);
  }
  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(1, 8192);
  ASSERT_TRUE(victim.has_value()) << GetParam();
  EXPECT_LT(victim->rdt_guess, 40000u);

  const auto series =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 300);
  const core::SeriesAnalysis a = core::AnalyzeSeries(series);
  EXPECT_GT(a.unique_values, 1u) << GetParam() << " shows no VRD";
  EXPECT_GT(a.cv, 0.0);
  EXPECT_LT(a.max_over_min, 10.0) << "implausible spread";
}

TEST_P(CatalogDeviceTest, DeterministicUnderSeed) {
  auto a = BuildDevice(GetParam(), 7);
  auto b = BuildDevice(GetParam(), 7);
  auto* ea = dynamic_cast<TrapFaultEngine*>(&a->model());
  auto* eb = dynamic_cast<TrapFaultEngine*>(&b->model());
  for (dram::RowAddr row = 1; row < 64; ++row) {
    const double ra = ea->MinFlipHammerCount(
        0, dram::PhysicalRow{row}, 0x55, 0xAA, a->timing().tRAS, 50.0,
        a->encoding(), 0);
    const double rb = eb->MinFlipHammerCount(
        0, dram::PhysicalRow{row}, 0x55, 0xAA, b->timing().tRAS, 50.0,
        b->encoding(), 0);
    EXPECT_DOUBLE_EQ(ra, rb);
  }
}

TEST_P(CatalogDeviceTest, RowPressStrictlyAmplifies) {
  const TestedChip chip = MakeTestedChip(GetParam());
  const Tick t_ras = chip.device.timing.tRAS;
  const Tick t_refi = chip.device.timing.tREFI;
  EXPECT_GT(chip.fault.PressFactor(t_refi),
            chip.fault.PressFactor(t_ras));
  EXPECT_DOUBLE_EQ(chip.fault.PressFactor(t_ras), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllDevices, CatalogDeviceTest,
    ::testing::ValuesIn(AllDeviceNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace vrddram::vrd
