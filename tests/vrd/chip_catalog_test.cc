#include "vrd/chip_catalog.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"

namespace vrddram::vrd {
namespace {

TEST(ChipCatalogTest, PopulationMatchesTable1) {
  EXPECT_EQ(AllDeviceNames().size(), 25u);
  EXPECT_EQ(Ddr4ModuleNames().size(), 21u);
  EXPECT_EQ(Hbm2ChipNames().size(), 4u);
  std::set<std::string> names(AllDeviceNames().begin(),
                              AllDeviceNames().end());
  for (const char* expected :
       {"H0", "H6", "M0", "M6", "S0", "S6", "Chip0", "Chip3"}) {
    EXPECT_TRUE(names.contains(expected)) << expected;
  }
}

TEST(ChipCatalogTest, UnknownNameThrows) {
  EXPECT_THROW(MakeTestedChip("Z9"), FatalError);
}

TEST(ChipCatalogTest, Table1Attributes) {
  const TestedChip h1 = MakeTestedChip("H1");
  EXPECT_EQ(h1.spec.mfr, Manufacturer::kMfrH);
  EXPECT_EQ(h1.spec.density_gbit, 16u);
  EXPECT_EQ(h1.spec.die_rev, 'C');
  EXPECT_EQ(h1.spec.dq_bits, 8u);
  EXPECT_EQ(h1.spec.date_code, "36-21");
  EXPECT_EQ(h1.spec.standard, dram::Standard::kDdr4);

  const TestedChip m0 = MakeTestedChip("M0");
  EXPECT_EQ(m0.spec.mfr, Manufacturer::kMfrM);
  EXPECT_EQ(m0.spec.dq_bits, 16u);
  EXPECT_EQ(m0.spec.chips_per_rank, 4u);

  const TestedChip hbm = MakeTestedChip("Chip2");
  EXPECT_EQ(hbm.spec.standard, dram::Standard::kHbm2);
  EXPECT_TRUE(hbm.device.has_on_die_ecc);
}

TEST(ChipCatalogTest, SameNameSameSeedIsDeterministic) {
  const TestedChip a = MakeTestedChip("S3", 2025);
  const TestedChip b = MakeTestedChip("S3", 2025);
  EXPECT_EQ(a.device.seed, b.device.seed);
  EXPECT_EQ(a.fault.median_rdt, b.fault.median_rdt);
  // Different base seed -> a different chip individual.
  const TestedChip c = MakeTestedChip("S3", 2026);
  EXPECT_NE(a.device.seed, c.device.seed);
}

TEST(ChipCatalogTest, BuildDeviceAttachesTrapEngine) {
  auto device = BuildDevice("H3");
  auto* engine = dynamic_cast<TrapFaultEngine*>(&device->model());
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(device->name(), "H3");
  EXPECT_EQ(device->org().rows_per_bank, 65536u);
}

TEST(ChipCatalogTest, M0AntiCellFractionCalibrated) {
  // §5.6: 20 of 50 sampled M0 rows were anti-cell rows.
  const TestedChip m0 = MakeTestedChip("M0");
  EXPECT_NEAR(m0.device.anti_cell_fraction, 0.4, 1e-9);
}

TEST(ChipCatalogTest, MedianRdtCalibration) {
  // The catalog's median cell thresholds track Table 7's minimum
  // observed RDT ordering: HBM chips weakest-by-press, M modules have
  // the lowest RowHammer thresholds.
  const TestedChip m4 = MakeTestedChip("M4");
  const TestedChip s1 = MakeTestedChip("S1");
  const TestedChip chip0 = MakeTestedChip("Chip0");
  EXPECT_LT(m4.fault.median_rdt, s1.fault.median_rdt);
  EXPECT_GT(chip0.fault.median_rdt, m4.fault.median_rdt);
  // HBM2 chips have far stronger RowPress sensitivity (Table 7).
  EXPECT_GT(chip0.fault.k_press, 5.0 * m4.fault.k_press);
}

TEST(ChipCatalogTest, OnlyChip1IsBimodal) {
  for (const std::string& name : AllDeviceNames()) {
    const TestedChip chip = MakeTestedChip(name);
    if (name == "Chip1") {
      EXPECT_GT(chip.fault.bimodal_trap_prob, 0.0);
    } else {
      EXPECT_EQ(chip.fault.bimodal_trap_prob, 0.0);
    }
  }
}

TEST(ChipCatalogTest, ManufacturerNames) {
  EXPECT_EQ(ToString(Manufacturer::kMfrH), "Mfr. H");
  EXPECT_EQ(ToString(Manufacturer::kMfrM), "Mfr. M");
  EXPECT_EQ(ToString(Manufacturer::kMfrS), "Mfr. S");
}

}  // namespace
}  // namespace vrddram::vrd

namespace vrddram::vrd {
namespace {

TEST(FutureDdr5Test, NotPartOfTheTable1Population) {
  EXPECT_THROW(MakeTestedChip("DDR5-FUT"), FatalError);
  EXPECT_EQ(AllDeviceNames().size(), 25u);
}

TEST(FutureDdr5Test, PracCapableDdr5Geometry) {
  const TestedChip chip = MakeFutureDdr5Chip();
  EXPECT_EQ(chip.spec.standard, dram::Standard::kDdr5);
  EXPECT_TRUE(chip.device.has_prac);
  EXPECT_EQ(chip.device.org.num_banks, 32u);
  EXPECT_EQ(chip.device.org.rows_per_bank, 65536u);
}

TEST(FutureDdr5Test, NearFutureRdtRegime) {
  // Weak rows sit in the ~1024-threshold regime §6.3 evaluates.
  auto device = BuildFutureDdr5Device();
  auto* engine = dynamic_cast<TrapFaultEngine*>(&device->model());
  ASSERT_NE(engine, nullptr);
  double min_rdt = 1e18;
  for (dram::RowAddr row = 1; row < 2048; ++row) {
    const double rdt = engine->MinFlipHammerCount(
        0, device->mapper().ToPhysical(row), 0x55, 0xAA,
        device->timing().tRAS, 50.0, device->encoding(), 0);
    if (rdt > 0.0) {
      min_rdt = std::min(min_rdt, rdt);
    }
  }
  EXPECT_LT(min_rdt, 4096.0);
  EXPECT_GT(min_rdt, 128.0);
}

TEST(FutureDdr5Test, DevicePracProtectsAtGuardbandedThreshold) {
  auto device = BuildFutureDdr5Device();
  auto* engine = dynamic_cast<TrapFaultEngine*>(&device->model());
  // A vulnerable victim and its deterministic-ish threshold scale.
  dram::RowAddr victim = 0;
  double rdt = -1.0;
  for (dram::RowAddr row = 2; row < 2048; ++row) {
    const auto phys = device->mapper().ToPhysical(row);
    if (phys.value < 2 || phys.value > 2050) {
      continue;
    }
    rdt = engine->MinFlipHammerCount(0, phys, 0x55, 0xAA,
                                     device->timing().tRAS, 50.0,
                                     device->encoding(), 0);
    if (rdt > 0.0 && rdt < 6000.0) {
      victim = row;
      break;
    }
  }
  ASSERT_GT(victim, 0u);

  device->SetPracThreshold(static_cast<std::uint64_t>(rdt * 0.4));
  device->BulkInitializeRow(0, victim, 0x55);
  const auto phys = device->mapper().ToPhysical(victim);
  for (const std::int64_t d : {-1, 1}) {
    device->BulkInitializeRow(
        0,
        device->mapper().ToLogical(dram::PhysicalRow{
            static_cast<dram::RowAddr>(phys.value + d)}),
        0xAA);
  }
  const auto chunk = static_cast<std::uint64_t>(rdt * 0.2);
  for (int i = 0; i < 20; ++i) {
    device->HammerDoubleSided(0, victim, chunk, device->timing().tRAS);
    if (device->AlertPending()) {
      device->ServiceAlert();
    }
  }
  device->Activate(0, victim);
  const auto data = device->ReadRow(0, victim);
  device->Precharge(0);
  for (const std::uint8_t byte : data) {
    EXPECT_EQ(byte, 0x55);
  }
}

}  // namespace
}  // namespace vrddram::vrd
