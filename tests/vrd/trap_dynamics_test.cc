// Temporal dynamics of the trap engine: stationarity, decorrelation,
// temperature acceleration, and intra-row threshold correlation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "dram/cell_encoding.h"
#include "vrd/trap_engine.h"

namespace vrddram::vrd {
namespace {

dram::Organization SmallOrg() {
  dram::Organization org;
  org.num_banks = 1;
  org.rows_per_bank = 1024;
  org.row_bytes = 1024;
  return org;
}

FaultProfile NoiseOnlyProfile() {
  FaultProfile profile;
  profile.median_rdt = 10000.0;
  profile.weak_cells_mean = 4.0;
  profile.fast_trap_mean = 0.0;
  profile.rare_trap_prob = 0.0;
  profile.heavy_trap_prob = 0.0;
  profile.measurement_noise_sigma = 0.02;
  profile.t_ras = 32 * units::kNanosecond;
  return profile;
}

TEST(TrapDynamicsTest, FastTrapOccupancyMatchesStationary) {
  FaultProfile profile = NoiseOnlyProfile();
  profile.measurement_noise_sigma = 0.0;
  profile.fast_trap_mean = 1.0;
  TrapFaultEngine engine(profile, 3, SmallOrg());
  const dram::CellEncodingLayout encoding(1, 0.0);

  // Find a row whose first cell has exactly one trap.
  dram::PhysicalRow row{0};
  const TrapFaultEngine::Trap* trap = nullptr;
  for (dram::RowAddr r = 1; r < 1000; ++r) {
    const auto& state = engine.RowStateOf(0, dram::PhysicalRow{r});
    if (state.cells.size() == 1 && state.cells[0].trap_count == 1) {
      row = dram::PhysicalRow{r};
      trap = &state.traps[state.cells[0].trap_begin];
      break;
    }
  }
  ASSERT_NE(trap, nullptr);
  const double occupancy = trap->occupancy;

  // Sample the analytic threshold far apart in time: the fraction of
  // samples in the "occupied" (lower) state matches the stationary
  // occupancy.
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) {
    samples.push_back(engine.MinFlipHammerCount(
        0, row, 0xFF, 0x00, profile.t_ras, 50.0, encoding,
        static_cast<Tick>(i) * units::kSecond));
  }
  const double hi = *std::max_element(samples.begin(), samples.end());
  int occupied = 0;
  for (const double s : samples) {
    if (s < hi * 0.999) {
      ++occupied;
    }
  }
  EXPECT_NEAR(static_cast<double>(occupied) / samples.size(), occupancy,
              0.05);
}

TEST(TrapDynamicsTest, ShortIntervalsPreserveState) {
  // Sampling much faster than the trap rate keeps the state sticky;
  // sampling much slower decorrelates it.
  FaultProfile profile = NoiseOnlyProfile();
  profile.measurement_noise_sigma = 0.0;
  profile.fast_trap_mean = 1.0;
  profile.fast_rate_lo_hz = 10.0;
  profile.fast_rate_hi_hz = 20.0;

  auto change_rate = [&](Tick dt) {
    TrapFaultEngine engine(profile, 3, SmallOrg());
    const dram::CellEncodingLayout encoding(1, 0.0);
    // A row with a single trapped cell, so its state drives the min.
    dram::PhysicalRow row{0};
    for (dram::RowAddr r = 1; r < 1000; ++r) {
      const auto& state = engine.RowStateOf(0, dram::PhysicalRow{r});
      if (state.cells.size() == 1 && state.cells[0].trap_count == 1) {
        row = dram::PhysicalRow{r};
        break;
      }
    }
    double prev = -1.0;
    int changes = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
      const double s = engine.MinFlipHammerCount(
          0, row, 0xFF, 0x00, profile.t_ras, 50.0, encoding,
          static_cast<Tick>(i) * dt);
      if (prev >= 0.0 && s != prev) {
        ++changes;
      }
      prev = s;
    }
    return static_cast<double>(changes) / n;
  };

  const double fast_sampling = change_rate(100 * units::kMicrosecond);
  const double slow_sampling = change_rate(10 * units::kSecond);
  EXPECT_LT(fast_sampling, slow_sampling);
}

TEST(TrapDynamicsTest, IntraRowThresholdsCluster) {
  FaultProfile profile = NoiseOnlyProfile();
  profile.weak_cells_mean = 8.0;
  TrapFaultEngine engine(profile, 5, SmallOrg());

  // Within a row, cell thresholds share the row factor: their spread
  // is much smaller than the spread across rows.
  std::vector<double> row_means;
  double intra_cv_sum = 0.0;
  int rows_used = 0;
  for (dram::RowAddr r = 1; r < 400 && rows_used < 50; ++r) {
    const auto& state = engine.RowStateOf(0, dram::PhysicalRow{r});
    if (state.cells.size() < 4) {
      continue;
    }
    double sum = 0.0;
    double sq = 0.0;
    for (const auto& cell : state.cells) {
      sum += cell.threshold;
      sq += cell.threshold * cell.threshold;
    }
    const double n = static_cast<double>(state.cells.size());
    const double mean = sum / n;
    const double var = std::max(0.0, sq / n - mean * mean);
    intra_cv_sum += std::sqrt(var) / mean;
    row_means.push_back(mean);
    ++rows_used;
  }
  ASSERT_GE(rows_used, 20);
  const double intra_cv = intra_cv_sum / rows_used;

  double sum = 0.0;
  double sq = 0.0;
  for (const double m : row_means) {
    sum += m;
    sq += m * m;
  }
  const double n = static_cast<double>(row_means.size());
  const double across_cv =
      std::sqrt(std::max(0.0, sq / n - (sum / n) * (sum / n))) /
      (sum / n);
  EXPECT_LT(intra_cv, across_cv)
      << "row-level process variation must dominate";
}

TEST(TrapDynamicsTest, HigherTemperatureAcceleratesTraps) {
  FaultProfile profile = NoiseOnlyProfile();
  profile.measurement_noise_sigma = 0.0;
  profile.fast_trap_mean = 2.0;
  profile.fast_rate_lo_hz = 5.0;
  profile.fast_rate_hi_hz = 10.0;
  profile.trap_rate_q10 = 2.0;

  auto change_rate = [&](Celsius temp) {
    TrapFaultEngine engine(profile, 7, SmallOrg());
    const dram::CellEncodingLayout encoding(1, 0.0);
    dram::PhysicalRow row{0};
    for (dram::RowAddr r = 1; r < 1000; ++r) {
      const auto& state = engine.RowStateOf(0, dram::PhysicalRow{r});
      if (state.cells.size() == 1 && state.cells[0].trap_count > 0) {
        row = dram::PhysicalRow{r};
        break;
      }
    }
    double prev = -1.0;
    int changes = 0;
    const int n = 4000;
    const Tick dt = 20 * units::kMillisecond;
    for (int i = 0; i < n; ++i) {
      const double s = engine.MinFlipHammerCount(
          0, row, 0xFF, 0x00, profile.t_ras, temp, encoding,
          static_cast<Tick>(i) * dt);
      if (prev >= 0.0 && s != prev) {
        ++changes;
      }
      prev = s;
    }
    return static_cast<double>(changes) / n;
  };

  EXPECT_LT(change_rate(50.0), change_rate(80.0));
}

TEST(TrapDynamicsTest, PerCellFlipPointsCoverAllCells) {
  FaultProfile profile = NoiseOnlyProfile();
  TrapFaultEngine engine(profile, 9, SmallOrg());
  const dram::CellEncodingLayout encoding(1, 0.0);
  for (dram::RowAddr r = 1; r < 200; ++r) {
    const dram::PhysicalRow row{r};
    const std::size_t cells = engine.RowStateOf(0, row).cells.size();
    MeasureContext ctx = engine.MakeMeasureContext(
        0, row, 0xFF, 0x00, profile.t_ras, 50.0, encoding, 0);
    std::vector<TrapFaultEngine::CellFlipPoint> points;
    engine.PerCellFlipHammerCounts(ctx, 0, points);
    EXPECT_EQ(points.size(), cells);
    std::set<std::uint32_t> bits;
    for (const auto& point : points) {
      bits.insert(point.bit_index);
    }
    EXPECT_EQ(bits.size(), points.size()) << "bit indices unique";
  }
}

}  // namespace
}  // namespace vrddram::vrd
