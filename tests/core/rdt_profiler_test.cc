#include "core/rdt_profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "bender/host.h"
#include "common/error.h"
#include "core/series_analysis.h"
#include "core/swept_rdt_oracle.h"
#include "vrd/chip_catalog.h"

namespace vrddram::core {
namespace {

struct ProfilerRig {
  explicit ProfilerRig(double noise_sigma = 0.015,
                       double weak_cells_mean = 6.0) {
    vrd::FaultProfile profile;
    profile.median_rdt = 8000.0;
    profile.sigma_rdt = 0.3;
    profile.weak_cells_mean = weak_cells_mean;
    profile.t_ras = dram::MakeDdr4_3200().tRAS;
    profile.measurement_noise_sigma = noise_sigma;
    profile.fast_trap_mean = 2.0;
    profile.rare_trap_prob = 0.0;

    dram::DeviceConfig config;
    config.org.num_banks = 2;
    config.org.rows_per_bank = 256;
    config.org.row_bytes = 256;
    config.seed = 909;
    device = std::make_unique<dram::Device>(
        config, std::make_unique<vrd::TrapFaultEngine>(
                    profile, config.seed, config.org));
  }
  std::unique_ptr<dram::Device> device;
};

TEST(RdtProfilerTest, FindVictimRespectsThreshold) {
  ProfilerRig rig;
  ProfilerConfig pc;
  RdtProfiler profiler(*rig.device, pc);
  const auto victim = profiler.FindVictim(1, 255);
  ASSERT_TRUE(victim.has_value());
  EXPECT_LT(victim->rdt_guess, 40000u);
  EXPECT_GT(victim->rdt_guess, 0u);
}

TEST(RdtProfilerTest, MeasurementsLandOnTheSweepGrid) {
  ProfilerRig rig;
  ProfilerConfig pc;
  RdtProfiler profiler(*rig.device, pc);
  const auto victim = profiler.FindVictim(1, 255);
  ASSERT_TRUE(victim.has_value());

  const std::uint64_t guess = victim->rdt_guess;
  const std::uint64_t lo = guess / 2;
  const std::uint64_t step = std::max<std::uint64_t>(1, guess / 100);
  const auto series = profiler.MeasureSeries(victim->row, guess, 200);
  ASSERT_EQ(series.size(), 200u);
  for (const std::int64_t rdt : series) {
    if (rdt == kNoFlip) {
      continue;
    }
    EXPECT_GE(static_cast<std::uint64_t>(rdt), lo);
    EXPECT_LT(static_cast<std::uint64_t>(rdt), guess * 3);
    EXPECT_EQ((static_cast<std::uint64_t>(rdt) - lo) % step, 0u)
        << "observed RDT must be a sweep grid point";
  }
}

TEST(RdtProfilerTest, SeriesShowsTemporalVariation) {
  ProfilerRig rig;
  ProfilerConfig pc;
  RdtProfiler profiler(*rig.device, pc);
  const auto victim = profiler.FindVictim(1, 255);
  ASSERT_TRUE(victim.has_value());
  const auto series =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 500);
  const SeriesAnalysis analysis = AnalyzeSeries(series);
  EXPECT_GT(analysis.unique_values, 1u) << "VRD must be visible";
  EXPECT_GT(analysis.cv, 0.0);
}

TEST(RdtProfilerTest, TimeAdvancesWithMeasurements) {
  ProfilerRig rig;
  ProfilerConfig pc;
  RdtProfiler profiler(*rig.device, pc);
  const auto victim = profiler.FindVictim(1, 255);
  ASSERT_TRUE(victim.has_value());
  const Tick t0 = rig.device->Now();
  profiler.MeasureSeries(victim->row, victim->rdt_guess, 10);
  const Tick elapsed = rig.device->Now() - t0;
  // 10 sweeps of thousands of hammers each take milliseconds+.
  EXPECT_GT(elapsed, units::kMillisecond);
}

TEST(RdtProfilerTest, BulkSweepAgreesWithAnalyticStatistically) {
  // Two identical rigs, one swept step by step through device commands
  // (the oracle), one profiled through the analytic path: the RDT
  // estimates must agree within a few percent.
  ProfilerRig bulk_rig;
  ProfilerRig analytic_rig;
  const auto victim_row = [&] {
    ProfilerConfig pc;
    RdtProfiler probe(*analytic_rig.device, pc);
    const auto victim = probe.FindVictim(1, 255);
    EXPECT_TRUE(victim.has_value());
    return *victim;
  }();

  const ProfilerConfig pc;
  bender::TestHost bulk(*bulk_rig.device);
  RdtProfiler analytic(*analytic_rig.device, pc);

  const auto bulk_series = oracle::SweptSeries(
      bulk, pc, victim_row.row, victim_row.rdt_guess, 40);
  const auto analytic_series =
      analytic.MeasureSeries(victim_row.row, victim_row.rdt_guess, 40);
  const double bulk_mean =
      AnalyzeSeries(bulk_series, 10).mean;
  const double analytic_mean =
      AnalyzeSeries(analytic_series, 10).mean;
  EXPECT_NEAR(bulk_mean / analytic_mean, 1.0, 0.05);
}

TEST(RdtProfilerTest, CommandLevelSweepAgreesOnDeterministicDevice) {
  // Without measurement noise the per-command and bulk sweeps follow
  // identical trap trajectories and must agree exactly.
  ProfilerRig exact_rig(0.0);
  ProfilerRig bulk_rig(0.0);
  ProfilerRig analytic_rig(0.0);

  ProfilerConfig seed_pc;
  RdtProfiler probe(*analytic_rig.device, seed_pc);
  const auto victim = probe.FindVictim(1, 255);
  ASSERT_TRUE(victim.has_value());

  const ProfilerConfig pc;
  bender::TestHost exact(*exact_rig.device);
  bender::TestHost bulk(*bulk_rig.device);

  const std::int64_t exact_rdt =
      oracle::SweptMeasurement(exact, pc, victim->row, victim->rdt_guess,
                               oracle::SweepPath::kCommandLevel);
  const std::int64_t bulk_rdt =
      oracle::SweptMeasurement(bulk, pc, victim->row, victim->rdt_guess);
  EXPECT_EQ(exact_rdt, bulk_rdt);
}

TEST(RdtProfilerTest, GuessIsCloseToSeriesMean) {
  ProfilerRig rig;
  ProfilerConfig pc;
  RdtProfiler profiler(*rig.device, pc);
  const auto victim = profiler.FindVictim(1, 255);
  ASSERT_TRUE(victim.has_value());
  const auto series =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 300);
  const double mean = AnalyzeSeries(series).mean;
  EXPECT_NEAR(mean / static_cast<double>(victim->rdt_guess), 1.0, 0.15);
}

TEST(RdtProfilerTest, InvalidConfigsThrow) {
  ProfilerRig rig;
  ProfilerConfig bad_bank;
  bad_bank.bank = 99;
  EXPECT_THROW(RdtProfiler(*rig.device, bad_bank), FatalError);

  // Profiling requires a trap engine.
  dram::DeviceConfig plain_config;
  plain_config.org.num_banks = 1;
  plain_config.org.rows_per_bank = 64;
  plain_config.org.row_bytes = 128;
  dram::Device plain(plain_config);
  EXPECT_THROW(RdtProfiler(plain, ProfilerConfig{}), FatalError);
}

TEST(RdtProfilerTest, MeasureSeriesRejectsZeroGuess) {
  ProfilerRig rig;
  ProfilerConfig pc;
  RdtProfiler profiler(*rig.device, pc);
  EXPECT_THROW(profiler.MeasureSeries(5, 0, 1), FatalError);
}

}  // namespace
}  // namespace vrddram::core

namespace vrddram::core {
namespace {

TEST(RdtProfilerTest, NoFlipRecordedWhenGridTooLow) {
  // A deliberately absurd guess places the whole sweep grid far below
  // any flipping count: every measurement records kNoFlip, and device
  // time still advances by the full sweep duration.
  ProfilerRig rig;
  ProfilerConfig pc;
  RdtProfiler profiler(*rig.device, pc);
  const auto victim = profiler.FindVictim(1, 255);
  ASSERT_TRUE(victim.has_value());

  const Tick t0 = rig.device->Now();
  const auto series = profiler.MeasureSeries(victim->row, 4, 1);
  EXPECT_EQ(series, std::vector<std::int64_t>{kNoFlip});
  EXPECT_GT(rig.device->Now(), t0);
}

TEST(RdtProfilerTest, FlipCountFarBeyondTheGridIsNoFlip) {
  // At a median RDT of 1e22 the flipping count sits ~1e21 grid steps
  // past the first grid value: more than any 64-bit index holds. Such
  // a measurement must record kNoFlip and take the whole-grid sweep's
  // time, exactly like one at 1e18, whose index still fits.
  auto measure = [](double median_rdt, Tick* elapsed) {
    vrd::TestedChip chip = vrd::MakeTestedChip("M1");
    chip.fault.median_rdt = median_rdt;
    dram::Device device(chip.device,
                        std::make_unique<vrd::TrapFaultEngine>(
                            chip.fault, chip.device.seed, chip.device.org));
    auto& engine = dynamic_cast<vrd::TrapFaultEngine&>(device.model());
    dram::RowAddr row = 1;
    while (engine.RowStateOf(0, device.mapper().ToPhysical(row))
               .cells.empty()) {
      ++row;
    }
    RdtProfiler profiler(device, ProfilerConfig{});
    const Tick t0 = device.Now();
    const std::vector<std::int64_t> series =
        profiler.MeasureSeries(row, 1000, 5);
    *elapsed = device.Now() - t0;
    return series;
  };
  Tick far_elapsed = 0;
  Tick near_elapsed = 0;
  const std::vector<std::int64_t> no_flips(5, kNoFlip);
  EXPECT_EQ(measure(1e22, &far_elapsed), no_flips);
  EXPECT_EQ(measure(1e18, &near_elapsed), no_flips);
  EXPECT_EQ(far_elapsed, near_elapsed);
}

TEST(RdtProfilerTest, GuessRdtNulloptForInvulnerableRow) {
  // A row with no weak cells never flips. At 0.5 weak cells per row on
  // average, about 60% of the rows have none.
  ProfilerRig rig(0.015, /*weak_cells_mean=*/0.5);
  auto* engine =
      dynamic_cast<vrd::TrapFaultEngine*>(&rig.device->model());
  ASSERT_NE(engine, nullptr);
  ProfilerConfig pc;
  RdtProfiler profiler(*rig.device, pc);
  std::optional<dram::RowAddr> invulnerable;
  for (dram::RowAddr row = 1; row < 255 && !invulnerable; ++row) {
    const auto phys = rig.device->mapper().ToPhysical(row);
    if (phys.value != 0 && phys.value < 255 &&
        engine->RowStateOf(0, phys).cells.empty()) {
      invulnerable = row;
    }
  }
  ASSERT_TRUE(invulnerable.has_value()) << "every scanned row had weak cells";
  EXPECT_FALSE(profiler.GuessRdt(*invulnerable).has_value());
}

TEST(RdtProfilerTest, RowPressProfilerUsesConfiguredTOn) {
  ProfilerRig rig;
  ProfilerConfig fast_pc;
  RdtProfiler fast(*rig.device, fast_pc);
  const auto victim = fast.FindVictim(1, 255);
  ASSERT_TRUE(victim.has_value());

  ProfilerConfig press_pc;
  press_pc.t_on = rig.device->timing().tREFI;
  RdtProfiler press(*rig.device, press_pc);
  EXPECT_EQ(press.EffectiveTOn(), rig.device->timing().tREFI);
  const auto press_guess = press.GuessRdt(victim->row);
  ASSERT_TRUE(press_guess.has_value());
  EXPECT_LT(*press_guess, victim->rdt_guess);
}

}  // namespace
}  // namespace vrddram::core
