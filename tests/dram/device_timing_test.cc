// Device-level inter-command timing: tRRD/tFAW across banks, burst
// pacing, and the residency of command scheduling invariants.
#include <gtest/gtest.h>

#include "common/error.h"
#include "dram/device.h"
#include "dram/write_row.h"

namespace vrddram::dram {
namespace {

DeviceConfig MultiBankConfig() {
  DeviceConfig config;
  config.org.num_banks = 8;
  config.org.rows_per_bank = 64;
  config.org.row_bytes = 128;
  config.timing = MakeDdr4_3200();
  config.seed = 21;
  return config;
}

TEST(DeviceTimingTest, ActToActAcrossBanksHonorsTrrd) {
  Device device(MultiBankConfig());
  device.Activate(0, 1);
  const Tick first = device.Now();
  device.Activate(1, 1);
  const Tick second = device.Now();
  EXPECT_GE(second - first, device.timing().tRRD_S);
}

TEST(DeviceTimingTest, FourActivateWindowEnforced) {
  Device device(MultiBankConfig());
  std::vector<Tick> act_times;
  for (BankId bank = 0; bank < 5; ++bank) {
    device.Activate(bank, 1);
    act_times.push_back(device.Now());
  }
  // The fifth ACT must wait until tFAW after the first.
  EXPECT_GE(act_times[4] - act_times[0], device.timing().tFAW);
}

TEST(DeviceTimingTest, IndependentBanksOverlapRowCycles) {
  Device device(MultiBankConfig());
  // Open two banks without waiting for either to close: legal.
  device.Activate(0, 1);
  device.Activate(1, 2);
  EXPECT_EQ(device.StateOf(0), BankState::kActive);
  EXPECT_EQ(device.StateOf(1), BankState::kActive);
  device.Precharge(0);
  device.Precharge(1);
  EXPECT_EQ(device.StateOf(0), BankState::kIdle);
}

TEST(DeviceTimingTest, WriteBurstTrainPacedByTccdLWr) {
  Device device(MultiBankConfig());
  device.Activate(0, 3);
  const Tick before = device.Now();
  WriteRow(device, 0, 3, 0x11);  // two 64 B bursts
  const Tick after = device.Now();
  // At least one tCCD_L_WR between the two bursts plus the data time.
  EXPECT_GE(after - before,
            device.timing().tCCD_L_WR + device.timing().tCWL +
                device.timing().tBL);
  device.Precharge(0);
}

TEST(DeviceTimingTest, WriteValidation) {
  Device device(MultiBankConfig());
  device.Activate(0, 3);
  const std::vector<std::uint8_t> bytes(16, 0xEE);
  // Wrong row open.
  EXPECT_THROW(device.Write(0, 4, 0, bytes), FatalError);
  // Beyond row end.
  EXPECT_THROW(device.Write(0, 3, 120, bytes), FatalError);
  // Empty write.
  EXPECT_THROW(device.Write(0, 3, 0, {}), FatalError);
  device.Precharge(0);
}

TEST(DeviceTimingTest, HammerSingleSidedAdvancesTimeAndCounts) {
  Device device(MultiBankConfig());
  const Tick t0 = device.Now();
  device.HammerSingleSided(0, 5, 100, device.timing().tRAS);
  EXPECT_EQ(device.counts().act, 100u);
  EXPECT_EQ(device.counts().pre, 100u);
  EXPECT_EQ(device.Now() - t0,
            100 * (device.timing().tRAS + device.timing().tRP));
}

TEST(DeviceTimingTest, BulkHammerThenCommandsRespectTiming) {
  Device device(MultiBankConfig());
  device.HammerDoubleSided(0, 5, 10, device.timing().tRAS);
  const Tick end_of_hammer = device.Now();
  // The next ACT to the same bank must respect tRP after the last PRE.
  device.Activate(0, 5);
  EXPECT_GE(device.Now(), end_of_hammer);
  device.Precharge(0);
}

TEST(DeviceTimingTest, RowPressHold) {
  Device device(MultiBankConfig());
  device.Activate(0, 5);
  device.Sleep(device.timing().tREFI);
  const Tick opened = device.Now();
  device.Precharge(0);
  EXPECT_GE(device.Now(), opened);
}

}  // namespace
}  // namespace vrddram::dram
