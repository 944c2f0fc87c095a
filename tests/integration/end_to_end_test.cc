/**
 * @file
 * End-to-end integration: Algorithm 1 executed against catalog devices
 * through the full stack (catalog -> device -> bender host -> profiler
 * -> analyses), checking the headline VRD phenomenology the paper
 * reports.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "bender/host.h"
#include "bender/thermal.h"
#include "core/campaign.h"
#include "core/min_rdt.h"
#include "core/rdt_profiler.h"
#include "core/series_analysis.h"
#include "core/test_once_oracle.h"
#include "vrd/chip_catalog.h"

namespace vrddram {
namespace {

TEST(EndToEndTest, Algorithm1ProducesVrdOnCatalogDevice) {
  auto device = vrd::BuildDevice("H1");
  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);

  const auto victim = profiler.FindVictim(1, 4000);
  ASSERT_TRUE(victim.has_value());
  EXPECT_LT(victim->rdt_guess, 40000u);

  const auto series =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 1000);
  const core::SeriesAnalysis analysis = core::AnalyzeSeries(series);

  // Finding 1: the RDT changes over time.
  EXPECT_GT(analysis.unique_values, 1u);
  EXPECT_GT(analysis.max_over_min, 1.0);
  // Finding 3: consecutive measurements usually differ.
  EXPECT_GT(analysis.immediate_change_fraction, 0.4);
  // §4.1: no repeating patterns (ACF close to white noise).
  EXPECT_LT(analysis.acf_significant_fraction, 0.4);
}

TEST(EndToEndTest, MinimumRdtIsHardToFindWithFewMeasurements) {
  auto device = vrd::BuildDevice("M1");
  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(1, 4000);
  ASSERT_TRUE(victim.has_value());
  const auto series =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 1000);

  const core::MinRdtSettings settings;
  const core::RowMinRdtResult mc =
      core::AnalyzeRowSeries(core::BuildSortedFlips(series), settings);
  // Finding 7/9: P(find min) grows with N and is small for N = 1.
  EXPECT_LT(mc.per_n.front().prob_find_min, 0.6);
  EXPECT_GT(mc.per_n.back().prob_find_min,
            mc.per_n.front().prob_find_min);
  // Finding 8: a single measurement overestimates the minimum.
  EXPECT_GT(mc.per_n.front().expected_norm_min, 1.0);
}

TEST(EndToEndTest, HbmChipsWorkThroughTheSameFlow) {
  auto device = vrd::BuildDevice("Chip0");
  // §3.1: disable the HBM2 on-die ECC before testing.
  device->SetOnDieEccEnabled(false);
  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(1, 4000);
  ASSERT_TRUE(victim.has_value());
  const auto series =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 300);
  EXPECT_GT(core::AnalyzeSeries(series).unique_values, 1u);
}

TEST(EndToEndTest, ThermalRigDrivesTemperatureDependence) {
  auto device = vrd::BuildDevice("M0");
  bender::TemperatureController rig(*device);
  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(1, 4000);
  ASSERT_TRUE(victim.has_value());

  rig.SettleTo(50.0);
  const auto series_50 =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 300);
  rig.SettleTo(80.0);
  const auto series_80 =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 300);

  const double mean_50 = core::AnalyzeSeries(series_50).mean;
  const double mean_80 = core::AnalyzeSeries(series_80).mean;
  // Finding 16: temperature changes the VRD profile. Direction is
  // cell-specific; only require a measurable change.
  EXPECT_NE(mean_50, mean_80);
}

TEST(EndToEndTest, RowPressNeedsFewerActivations) {
  auto device = vrd::BuildDevice("Chip0");
  device->SetOnDieEccEnabled(false);
  core::ProfilerConfig fast_pc;
  core::RdtProfiler fast(*device, fast_pc);
  const auto victim = fast.FindVictim(1, 4000);
  ASSERT_TRUE(victim.has_value());

  core::ProfilerConfig press_pc;
  press_pc.t_on = device->timing().tREFI;
  core::RdtProfiler press(*device, press_pc);
  const auto press_guess = press.GuessRdt(victim->row);
  ASSERT_TRUE(press_guess.has_value());
  // Table 7: HBM2 min observed RDT drops by >10x from tRAS to tREFI.
  EXPECT_LT(static_cast<double>(*press_guess),
            static_cast<double>(victim->rdt_guess) / 5.0);
}

TEST(EndToEndTest, CommandLevelFlowMatchesDeviceState) {
  // Run one full measurement through individually issued commands and
  // confirm the device ends precharged with consistent counts.
  auto device = vrd::BuildDevice("S2");
  bender::TestHost host(*device);
  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(1, 2000);
  ASSERT_TRUE(victim.has_value());

  // Initialization touches the victim's physical +-8 neighbourhood,
  // clipped at the bank edges.
  const dram::PhysicalRow phys =
      device->mapper().ToPhysical(victim->row);
  const std::uint64_t last = device->org().LargestRowAddress();
  std::uint64_t init_rows = 0;
  for (std::int64_t d = -8; d <= 8; ++d) {
    const std::int64_t target = static_cast<std::int64_t>(phys.value) + d;
    if (target >= 0 && target <= static_cast<std::int64_t>(last)) {
      ++init_rows;
    }
  }
  const auto before = device->counts();
  oracle::TestOnceExact(host, 0, victim->row,
                        dram::DataPattern::kCheckered0, 500,
                        device->timing().tRAS);
  const auto after = device->counts();
  EXPECT_EQ(after.act - before.act, init_rows + 2 * 500u + 1u);
  EXPECT_EQ(after.pre - before.pre, init_rows + 2 * 500u + 1u);
  EXPECT_EQ(device->StateOf(0), dram::BankState::kIdle);
}

}  // namespace
}  // namespace vrddram
