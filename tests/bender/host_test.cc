#include "bender/host.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/test_once_oracle.h"
#include "vrd/chip_catalog.h"
#include "vrd/trap_engine.h"

namespace vrddram::bender {
namespace {

/// A small device with a deterministic (no-noise, no-trap) fault
/// engine so exact and bulk paths can be compared bit for bit.
struct Rig {
  Rig() {
    vrd::FaultProfile profile;
    profile.median_rdt = 5000.0;
    profile.sigma_rdt = 0.3;
    profile.weak_cells_mean = 6.0;
    profile.t_ras = dram::MakeDdr4_3200().tRAS;
    profile.measurement_noise_sigma = 0.0;
    profile.fast_trap_mean = 0.0;
    profile.rare_trap_prob = 0.0;

    dram::DeviceConfig config;
    config.org.num_banks = 2;
    config.org.rows_per_bank = 128;
    config.org.row_bytes = 256;
    config.seed = 4242;
    config.row_mapping = dram::RowMappingScheme::kXorMidBits;
    device = std::make_unique<dram::Device>(
        config, std::make_unique<vrd::TrapFaultEngine>(
                    profile, config.seed, config.org));
  }
  std::unique_ptr<dram::Device> device;
};

TEST(HostTest, InitializeNeighborhoodWritesTable2Bytes) {
  Rig rig;
  TestHost host(*rig.device);
  const dram::RowAddr victim = 20;
  host.InitializeNeighborhood(0, victim, dram::DataPattern::kCheckered0);

  const dram::PhysicalRow phys = rig.device->mapper().ToPhysical(victim);
  // Read each row back through ACT/RD/PRE at its logical address.
  auto row_byte = [&](std::int64_t offset) {
    const dram::RowAddr logical = rig.device->mapper().ToLogical(
        dram::PhysicalRow{static_cast<dram::RowAddr>(phys.value + offset)});
    rig.device->Activate(0, logical);
    const auto data = rig.device->ReadRow(0, logical);
    rig.device->Precharge(0);
    return data[0];
  };
  EXPECT_EQ(row_byte(0), 0x55);   // victim
  EXPECT_EQ(row_byte(-1), 0xAA);  // aggressors
  EXPECT_EQ(row_byte(1), 0xAA);
  for (const std::int64_t d : {-8, -5, -2, 2, 5, 8}) {
    EXPECT_EQ(row_byte(d), 0x55) << "surround row at offset " << d;
  }
}

TEST(HostTest, TestOnceFlipsAtHighCountNotLow) {
  Rig rig;
  TestHost host(*rig.device);
  auto* engine =
      dynamic_cast<vrd::TrapFaultEngine*>(&rig.device->model());
  ASSERT_NE(engine, nullptr);

  // Find a victim with a weak cell and get its deterministic RDT.
  dram::RowAddr victim = 0;
  double rdt = -1.0;
  for (dram::RowAddr row = 1; row < 127; ++row) {
    const dram::PhysicalRow phys = rig.device->mapper().ToPhysical(row);
    if (phys.value == 0 || phys.value >= 127) {
      continue;
    }
    rdt = engine->MinFlipHammerCount(
        0, phys, dram::VictimByte(dram::DataPattern::kCheckered0),
        dram::AggressorByte(dram::DataPattern::kCheckered0),
        rig.device->timing().tRAS, 50.0, rig.device->encoding(), 0);
    if (rdt > 0.0 && rdt < 50000.0) {
      victim = row;
      break;
    }
  }
  ASSERT_GT(rdt, 0.0);

  const auto low = static_cast<std::uint64_t>(rdt * 0.9);
  const auto high = static_cast<std::uint64_t>(rdt * 1.1);
  EXPECT_TRUE(oracle::TestOnce(host, 0, victim,
                               dram::DataPattern::kCheckered0, low,
                               rig.device->timing().tRAS)
                  .empty());
  EXPECT_FALSE(oracle::TestOnce(host, 0, victim,
                                dram::DataPattern::kCheckered0, high,
                                rig.device->timing().tRAS)
                   .empty());
}

TEST(HostTest, ExactAndBulkPathsAgree) {
  // Two identical rigs; one tested with individually issued commands,
  // the other through the bulk fast path. The observed flips must be
  // identical (the fault engine is deterministic here).
  Rig exact_rig;
  Rig bulk_rig;
  TestHost exact_host(*exact_rig.device);
  TestHost bulk_host(*bulk_rig.device);
  auto* engine =
      dynamic_cast<vrd::TrapFaultEngine*>(&exact_rig.device->model());

  dram::RowAddr victim = 0;
  double rdt = -1.0;
  for (dram::RowAddr row = 1; row < 127; ++row) {
    const dram::PhysicalRow phys =
        exact_rig.device->mapper().ToPhysical(row);
    if (phys.value == 0 || phys.value >= 127) {
      continue;
    }
    rdt = engine->MinFlipHammerCount(
        0, phys, dram::VictimByte(dram::DataPattern::kCheckered0),
        dram::AggressorByte(dram::DataPattern::kCheckered0),
        exact_rig.device->timing().tRAS, 50.0,
        exact_rig.device->encoding(), 0);
    if (rdt > 0.0 && rdt < 20000.0) {
      victim = row;
      break;
    }
  }
  ASSERT_GT(rdt, 0.0);

  for (const double factor : {0.95, 1.05}) {
    const auto hc = static_cast<std::uint64_t>(rdt * factor);
    const auto exact_flips = oracle::TestOnceExact(
        exact_host, 0, victim, dram::DataPattern::kCheckered0, hc,
        exact_rig.device->timing().tRAS);
    const auto bulk_flips = oracle::TestOnce(
        bulk_host, 0, victim, dram::DataPattern::kCheckered0, hc,
        bulk_rig.device->timing().tRAS);
    EXPECT_EQ(exact_flips, bulk_flips) << "at factor " << factor;
  }
  // The two paths must account identical elapsed time.
  EXPECT_EQ(exact_rig.device->Now(), bulk_rig.device->Now());
}

TEST(HostTest, DiscoverRowEncodingMatchesLayout) {
  dram::DeviceConfig config;
  config.org.num_banks = 1;
  config.org.rows_per_bank = 64;
  config.org.row_bytes = 256;
  config.seed = 31;
  config.anti_cell_fraction = 0.5;
  config.retention.weak_cells_per_row = 4.0;  // dense weak cells
  dram::Device device(config);
  TestHost host(device);

  int verified = 0;
  for (dram::RowAddr row = 0; row < 64 && verified < 6; ++row) {
    const auto discovered =
        host.DiscoverRowEncoding(0, row, 3600 * units::kSecond);
    if (!discovered) {
      continue;  // row has no retention-weak cell
    }
    const dram::PhysicalRow phys = device.mapper().ToPhysical(row);
    EXPECT_EQ(*discovered, device.encoding().RowEncoding(phys));
    ++verified;
  }
  EXPECT_GT(verified, 0);
}

}  // namespace
}  // namespace vrddram::bender
