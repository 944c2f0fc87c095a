/**
 * @file
 * Device::HammerSingleSided, the bulk path blast_radius drives: its
 * physics against the double-sided hammer and its command accounting
 * against the ACT/PRE loop it stands for.
 */
#include <gtest/gtest.h>

#include <memory>

#include "dram/device.h"
#include "vrd/trap_engine.h"

namespace vrddram::dram {
namespace {

/// A deterministic (no-noise, no-trap) device with scrambled rows.
struct SingleSidedRig {
  SingleSidedRig() {
    vrd::FaultProfile profile;
    profile.median_rdt = 5000.0;
    profile.weak_cells_mean = 6.0;
    profile.t_ras = MakeDdr4_3200().tRAS;
    profile.measurement_noise_sigma = 0.0;
    profile.fast_trap_mean = 0.0;
    profile.rare_trap_prob = 0.0;
    profile.heavy_trap_prob = 0.0;

    DeviceConfig config;
    config.org.num_banks = 1;
    config.org.rows_per_bank = 128;
    config.org.row_bytes = 256;
    config.seed = 77;
    config.row_mapping = RowMappingScheme::kXorMidBits;
    device = std::make_unique<Device>(
        config, std::make_unique<vrd::TrapFaultEngine>(profile, config.seed,
                                                       config.org));
  }
  std::unique_ptr<Device> device;
};

/// Logical address of the row at `offset` physical rows from `logical`.
RowAddr PhysicalNeighbor(const Device& device, RowAddr logical,
                         std::int64_t offset) {
  const PhysicalRow phys = device.mapper().ToPhysical(logical);
  return device.mapper().ToLogical(
      PhysicalRow{static_cast<RowAddr>(phys.value + offset)});
}

TEST(SingleSidedHammerTest, SingleSidedFlipsNeedMoreHammers) {
  // A single aggressor delivers only one side's coupling: flipping the
  // victim takes more activations than double-sided at equal counts.
  SingleSidedRig rig;
  auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&rig.device->model());
  ASSERT_NE(engine, nullptr);
  RowAddr victim = 0;
  for (RowAddr row = 2; row < 125; ++row) {
    const PhysicalRow phys = rig.device->mapper().ToPhysical(row);
    if (phys.value < 2 || phys.value > 125) {
      continue;
    }
    if (!engine->RowStateOf(0, phys).cells.empty()) {
      victim = row;
      break;
    }
  }
  ASSERT_GT(victim, 0u);
  const double rdt_double = engine->MinFlipHammerCount(
      0, rig.device->mapper().ToPhysical(victim), 0x55, 0xAA,
      rig.device->timing().tRAS, 50.0, rig.device->encoding(), 0);
  ASSERT_GT(rdt_double, 0.0);

  auto flips_after = [&](bool double_sided, std::uint64_t hammers) {
    SingleSidedRig fresh;
    Device& device = *fresh.device;
    const Tick t_on = device.timing().tRAS;
    // Initialize the victim's data so flips are observable.
    device.BulkInitializeRow(0, victim, 0x55);
    for (const std::int64_t d : {-1, 1}) {
      device.BulkInitializeRow(0, PhysicalNeighbor(device, victim, d), 0xAA);
    }
    if (double_sided) {
      device.HammerDoubleSided(0, victim, hammers, t_on);
    } else {
      device.HammerSingleSided(0, PhysicalNeighbor(device, victim, 1),
                               hammers, t_on);
    }
    device.Activate(0, victim);
    const std::vector<std::uint8_t> data = device.ReadRow(0, victim);
    device.Precharge(0);
    return CountDiffBits(data, 0x55);
  };

  const auto hc = static_cast<std::uint64_t>(rdt_double * 1.1);
  EXPECT_GT(flips_after(/*double_sided=*/true, hc), 0u);
  EXPECT_EQ(flips_after(/*double_sided=*/false, hc), 0u);
  // Enough single-sided hammers eventually flip too.
  EXPECT_GT(flips_after(/*double_sided=*/false, hc * 4), 0u);
}

TEST(SingleSidedHammerTest, CommandLoopMatchesBulkExecution) {
  SingleSidedRig exact;
  SingleSidedRig bulk;
  const RowAddr aggressor = PhysicalNeighbor(*exact.device, 40, 1);
  constexpr std::uint64_t kHammers = 300;

  for (std::uint64_t i = 0; i < kHammers; ++i) {
    exact.device->Activate(0, aggressor);
    exact.device->Precharge(0);
  }
  bulk.device->HammerSingleSided(0, aggressor, kHammers,
                                 bulk.device->timing().tRAS);

  EXPECT_EQ(exact.device->counts().act, bulk.device->counts().act);
  // The bulk path accounts the final precharge's tRP; the command
  // path's clock rests at the final PRE's issue instant.
  EXPECT_EQ(exact.device->Now() + exact.device->timing().tRP,
            bulk.device->Now());
}

}  // namespace
}  // namespace vrddram::dram
