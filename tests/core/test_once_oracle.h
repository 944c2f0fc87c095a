/**
 * @file
 * Test-only reference oracle: one read-disturbance test iteration of
 * Alg. 1 (lines 19-21) - initialize the victim's neighbourhood, hammer
 * its two physical aggressors, read and compare the victim.
 *
 * TestOnce runs it through the device's bulk fast path (the path the
 * experiments use); TestOnceExact issues every ACT/WR/PRE/RD command
 * individually, the way a DRAM Bender program would. Tests run both on
 * twin devices to check that the fast path is behaviourally identical
 * to the command sequence it stands for.
 */
#ifndef VRDDRAM_TESTS_CORE_TEST_ONCE_ORACLE_H
#define VRDDRAM_TESTS_CORE_TEST_ONCE_ORACLE_H

#include <cstdint>
#include <vector>

#include "bender/host.h"
#include "common/error.h"
#include "dram/write_row.h"

namespace vrddram::oracle {

/// Initialize, hammer with `hammer_count` per aggressor, read and
/// compare. Returns the observed bitflips (empty = no flip).
inline std::vector<dram::BitFlip> TestOnce(bender::TestHost& host,
                                           dram::BankId bank,
                                           dram::RowAddr victim_logical,
                                           dram::DataPattern pattern,
                                           std::uint64_t hammer_count,
                                           Tick t_on) {
  host.InitializeNeighborhood(bank, victim_logical, pattern);
  host.device().HammerDoubleSided(bank, victim_logical, hammer_count, t_on);
  return host.ReadAndCompareVictim(bank, victim_logical, pattern);
}

/**
 * Command-exact TestOnce: the 17-row neighbourhood written with
 * ACT/WR/PRE, then `hammer_count` rounds of ACT/PRE to the lower and
 * the upper aggressor, then ACT/RD/PRE of the victim.
 */
inline std::vector<dram::BitFlip> TestOnceExact(
    bender::TestHost& host, dram::BankId bank, dram::RowAddr victim_logical,
    dram::DataPattern pattern, std::uint64_t hammer_count, Tick t_on) {
  dram::Device& device = host.device();
  const dram::PhysicalRow victim = device.mapper().ToPhysical(victim_logical);
  VRD_FATAL_IF(victim.value == 0 ||
                   victim.value >= device.org().LargestRowAddress(),
               "edge victim has no double-sided aggressors");
  VRD_FATAL_IF(t_on < device.timing().tRAS,
               "tAggOn below the minimum tRAS");
  const dram::RowAddr aggr_lo =
      device.mapper().ToLogical(dram::PhysicalRow{victim.value - 1});
  const dram::RowAddr aggr_hi =
      device.mapper().ToLogical(dram::PhysicalRow{victim.value + 1});

  const auto max_row =
      static_cast<std::int64_t>(device.org().LargestRowAddress());
  for (std::int64_t d = -8; d <= 8; ++d) {
    const std::int64_t target = static_cast<std::int64_t>(victim.value) + d;
    if (target < 0 || target > max_row) {
      continue;
    }
    const std::uint8_t fill = (d == 0) ? dram::VictimByte(pattern)
                              : (d == -1 || d == 1)
                                  ? dram::AggressorByte(pattern)
                                  : dram::SurroundByte(pattern);
    const dram::RowAddr logical = device.mapper().ToLogical(
        dram::PhysicalRow{static_cast<dram::RowAddr>(target)});
    device.Activate(bank, logical);
    dram::WriteRow(device, bank, logical, fill);
    device.Precharge(bank);
  }

  // PRE is auto-delayed to tRAS after ACT, so an explicit Sleep is
  // only needed for RowPress-style t_on beyond tRAS.
  const Tick hold = (t_on > device.timing().tRAS) ? t_on : 0;
  for (std::uint64_t i = 0; i < hammer_count; ++i) {
    for (const dram::RowAddr aggressor : {aggr_lo, aggr_hi}) {
      device.Activate(bank, aggressor);
      if (hold > 0) {
        device.Sleep(hold);
      }
      device.Precharge(bank);
    }
  }

  device.Activate(bank, victim_logical);
  const std::vector<std::uint8_t> data =
      device.ReadRow(bank, victim_logical);
  device.Precharge(bank);
  return dram::DiffBits(data, dram::VictimByte(pattern));
}

}  // namespace vrddram::oracle

#endif  // VRDDRAM_TESTS_CORE_TEST_ONCE_ORACLE_H
