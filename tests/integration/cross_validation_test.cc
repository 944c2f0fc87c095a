/**
 * @file
 * Cross-validation between independent implementations: the Appendix A
 * analytic TestTimeModel versus the command-level Device path, the
 * Monte Carlo resampler versus the closed-form min-RDT statistics on
 * real campaign data, and the analytic profiler's sweep duration
 * versus the step-by-step swept oracle.
 */
#include <gtest/gtest.h>

#include "bender/host.h"
#include "core/min_rdt.h"
#include "core/rdt_profiler.h"
#include "core/swept_rdt_oracle.h"
#include "core/test_time_model.h"
#include "stats/min_sample_oracle.h"
#include "vrd/chip_catalog.h"

namespace vrddram {
namespace {

TEST(CrossValidationTest, TimeModelMatchesDeviceCommandPath) {
  // One RDT measurement = init 3 rows + hammer + read back. The
  // analytic model and the device's scheduler are written
  // independently; their durations must agree closely.
  dram::DeviceConfig config;
  config.org = dram::MakeDdr4Org(8, 8, 8);
  config.timing = dram::MakeDdr4_3200();
  config.seed = 5;
  dram::Device device(config);

  const std::uint64_t hammers = 5000;
  const Tick t_on = device.timing().tRAS;
  const Tick start = device.Now();
  device.BulkInitializeRow(0, 99, 0x55);
  device.BulkInitializeRow(0, 98, 0xAA);
  device.BulkInitializeRow(0, 100, 0xAA);
  device.HammerDoubleSided(0, 99, hammers, t_on);
  device.Activate(0, 99);
  device.ReadRow(0, 99);
  device.Precharge(0);
  const double device_seconds = units::ToSeconds(device.Now() - start);

  const core::TestTimeModel model(dram::MakeDdr4_3200());
  const double model_seconds =
      model.MeasurementCost(hammers, t_on).seconds;

  EXPECT_NEAR(model_seconds / device_seconds, 1.0, 0.05)
      << "model " << model_seconds << " s vs device " << device_seconds
      << " s";
}

TEST(CrossValidationTest, MonteCarloMatchesClosedFormOnRealSeries) {
  auto device = vrd::BuildDevice("S2", 2025);
  core::ProfilerConfig pc;
  core::RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(1, 4000);
  ASSERT_TRUE(victim.has_value());
  const auto series =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, 800);

  core::MinRdtSettings settings;
  settings.sample_sizes = {1, 10, 100};
  const core::RowMinRdtResult exact =
      core::AnalyzeRowSeries(core::BuildSortedFlips(series), settings);
  Rng rng(3);
  for (std::size_t i = 0; i < settings.sample_sizes.size(); ++i) {
    const std::size_t n = settings.sample_sizes[i];
    const auto mc = oracle::SampleMinStatistics(series, n, 20000, rng);
    EXPECT_NEAR(mc.prob_find_min, exact.per_n[i].prob_find_min, 0.02)
        << "N=" << n;
    EXPECT_NEAR(mc.expected_norm_min, exact.per_n[i].expected_norm_min,
                0.02)
        << "N=" << n;
  }
}

TEST(CrossValidationTest, AnalyticSweepDurationMatchesBulkSweep) {
  // The analytic profiler sleeps for the duration the bulk sweep would
  // take; measure both on identical twins (the bulk sweep through the
  // swept oracle) and compare.
  auto analytic_device = vrd::BuildDevice("S2", 77);
  auto bulk_device = vrd::BuildDevice("S2", 77);

  core::ProfilerConfig seed_pc;
  core::RdtProfiler seeder(*analytic_device, seed_pc);
  const auto victim = seeder.FindVictim(1, 4000);
  ASSERT_TRUE(victim.has_value());

  const core::ProfilerConfig pc;
  core::RdtProfiler analytic(*analytic_device, pc);
  bender::TestHost bulk(*bulk_device);

  const Tick a0 = analytic_device->Now();
  const Tick b0 = bulk_device->Now();
  analytic.MeasureSeries(victim->row, victim->rdt_guess, 20);
  oracle::SweptSeries(bulk, pc, victim->row, victim->rdt_guess, 20);
  const double a_elapsed =
      units::ToSeconds(analytic_device->Now() - a0);
  const double b_elapsed = units::ToSeconds(bulk_device->Now() - b0);
  // Different random flip points shift where each sweep stops; the
  // totals still have to be the same order.
  EXPECT_NEAR(a_elapsed / b_elapsed, 1.0, 0.30)
      << a_elapsed << " vs " << b_elapsed;
}

}  // namespace
}  // namespace vrddram
