// In-device PRAC: per-row activation counters, ALERT_n, and the
// controller back-off protecting victims (JESD79-5C semantics).
#include <gtest/gtest.h>

#include <utility>

#include "common/error.h"
#include "dram/device.h"
#include "vrd/trap_engine.h"

namespace vrddram::dram {
namespace {

DeviceConfig PracConfig() {
  DeviceConfig config;
  config.org.num_banks = 2;
  config.org.rows_per_bank = 128;
  config.org.row_bytes = 256;
  config.seed = 55;
  config.has_prac = true;
  return config;
}

TEST(PracTest, DisabledWithoutHardware) {
  DeviceConfig config = PracConfig();
  config.has_prac = false;
  Device device(config);
  EXPECT_THROW(device.SetPracThreshold(100), FatalError);
  EXPECT_THROW(device.ServiceAlert(), FatalError);
  EXPECT_FALSE(device.AlertPending());
}

TEST(PracTest, CountersTrackActivations) {
  // At threshold 501, 500 bulk hammers of row 10 stay below it and one
  // more ACT through the command path reaches it.
  Device device(PracConfig());
  device.SetPracThreshold(501);
  device.HammerSingleSided(0, 10, 500, device.timing().tRAS);
  EXPECT_FALSE(device.AlertPending());
  device.Activate(0, 10);
  device.Precharge(0);
  EXPECT_TRUE(device.AlertPending());
  // Other rows and banks keep their own counters.
  for (const auto& [bank, row] : {std::pair<BankId, RowAddr>{0, 11},
                                 std::pair<BankId, RowAddr>{1, 10}}) {
    Device other(PracConfig());
    other.SetPracThreshold(501);
    other.HammerSingleSided(0, 10, 500, other.timing().tRAS);
    other.Activate(bank, row);
    other.Precharge(bank);
    EXPECT_FALSE(other.AlertPending()) << "bank " << bank << " row " << row;
  }
}

TEST(PracTest, AlertRaisedAtThreshold) {
  Device device(PracConfig());
  device.SetPracThreshold(100);
  device.HammerSingleSided(0, 10, 99, device.timing().tRAS);
  EXPECT_FALSE(device.AlertPending());
  device.HammerSingleSided(0, 10, 1, device.timing().tRAS);
  EXPECT_TRUE(device.AlertPending());
}

TEST(PracTest, ZeroThresholdNeverAlerts) {
  Device device(PracConfig());
  device.SetPracThreshold(0);
  device.HammerSingleSided(0, 10, 5000, device.timing().tRAS);
  EXPECT_FALSE(device.AlertPending());
}

TEST(PracTest, ServiceAlertResetsCountersAndTakesTime) {
  Device device(PracConfig());
  device.SetPracThreshold(100);
  device.HammerDoubleSided(0, 20, 150, device.timing().tRAS);
  ASSERT_TRUE(device.AlertPending());
  const Tick before = device.Now();
  device.ServiceAlert();
  EXPECT_FALSE(device.AlertPending());
  // Both aggressors (rows 19 and 21) were above threshold.
  EXPECT_GE(device.Now() - before, 2 * device.timing().tRFC);
  // Their counters restart at 0: threshold - 1 further hammers stay
  // below it, and one more reaches it.
  device.HammerDoubleSided(0, 20, 99, device.timing().tRAS);
  EXPECT_FALSE(device.AlertPending());
  device.HammerDoubleSided(0, 20, 1, device.timing().tRAS);
  EXPECT_TRUE(device.AlertPending());
}

TEST(PracTest, BackOffPreventsBitflips) {
  // A PRAC-protected device serviced at its threshold never lets the
  // victim accumulate enough disturbance; an unprotected one flips.
  vrd::FaultProfile profile;
  profile.median_rdt = 3000.0;
  profile.weak_cells_mean = 8.0;
  profile.t_ras = MakeDdr4_3200().tRAS;
  profile.measurement_noise_sigma = 0.0;
  profile.fast_trap_mean = 0.0;
  profile.rare_trap_prob = 0.0;
  profile.heavy_trap_prob = 0.0;

  auto run = [&](bool protect) {
    DeviceConfig config = PracConfig();
    auto engine = std::make_unique<vrd::TrapFaultEngine>(
        profile, config.seed, config.org);
    auto* raw = engine.get();
    Device device(config, std::move(engine));

    // A victim with a deterministic RDT under this setup.
    RowAddr victim = 0;
    double rdt = -1.0;
    for (RowAddr row = 2; row < 126; ++row) {
      rdt = raw->MinFlipHammerCount(
          0, PhysicalRow{row}, 0x55, 0xAA, device.timing().tRAS, 50.0,
          device.encoding(), 0);
      if (rdt > 0.0 && rdt < 20000.0) {
        victim = row;
        break;
      }
    }
    EXPECT_GT(victim, 0u);

    device.SetPracThreshold(
        static_cast<std::uint64_t>(rdt * 0.5));  // 50% guardband
    device.BulkInitializeRow(0, victim, 0x55);
    device.BulkInitializeRow(0, victim - 1, 0xAA);
    device.BulkInitializeRow(0, victim + 1, 0xAA);

    // Hammer far beyond the RDT in chunks; the controller services
    // ALERT_n promptly when protection is on.
    const auto chunk = static_cast<std::uint64_t>(rdt * 0.25);
    for (int i = 0; i < 12; ++i) {
      device.HammerDoubleSided(0, victim, chunk,
                               device.timing().tRAS);
      if (protect && device.AlertPending()) {
        device.ServiceAlert();
      }
    }
    device.Activate(0, victim);
    const auto data = device.ReadRow(0, victim);
    device.Precharge(0);
    int flips = 0;
    for (const std::uint8_t byte : data) {
      flips += std::popcount(static_cast<unsigned>(byte ^ 0x55));
    }
    return flips;
  };

  EXPECT_EQ(run(/*protect=*/true), 0);
  EXPECT_GT(run(/*protect=*/false), 0);
}

}  // namespace
}  // namespace vrddram::dram
