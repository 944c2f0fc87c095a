#include "dram/timing.h"

#include <gtest/gtest.h>

namespace vrddram::dram {
namespace {

using units::FromNs;
using units::FromUs;

// Table 6 of the paper's Appendix A (JEDEC DDR5 @ 8800 MT/s).
TEST(TimingTest, Ddr5Table6Values) {
  const TimingParams t = MakeDdr5_8800();
  EXPECT_EQ(t.tRRD_S, FromNs(1.816));
  EXPECT_EQ(t.tCCD_S, FromNs(1.816));
  EXPECT_EQ(t.tCCD_L, FromNs(5.0));
  EXPECT_EQ(t.tCCD_L_WR, FromNs(20.0));
  EXPECT_EQ(t.tRCD, FromNs(14.090));
  EXPECT_EQ(t.tRP, FromNs(14.090));
  EXPECT_EQ(t.tRAS, FromNs(32.0));
  EXPECT_EQ(t.tRTP, FromNs(7.5));
  EXPECT_EQ(t.tWR, FromNs(30.0));
}

TEST(TimingTest, Ddr4Basics) {
  const TimingParams t = MakeDdr4_3200();
  EXPECT_EQ(t.standard, Standard::kDdr4);
  EXPECT_EQ(t.tREFI, FromUs(7.8));
  EXPECT_EQ(t.tREFW, FromUs(64000.0));
  EXPECT_EQ(t.tRC, t.tRAS + t.tRP);
  // 8192 refresh commands cover the refresh window.
  EXPECT_EQ(t.tREFW / t.tREFI, 8205);  // 64 ms / 7.8 us
}

TEST(TimingTest, MaxRowOpenTimeIsNineTrefi) {
  const TimingParams t = MakeDdr4_3200();
  EXPECT_EQ(t.MaxRowOpenTime(), 9 * t.tREFI);
}

TEST(TimingTest, StandardsDiffer) {
  EXPECT_EQ(MakeHbm2().standard, Standard::kHbm2);
  EXPECT_EQ(MakeDdr5_8800().standard, Standard::kDdr5);
  EXPECT_EQ(ToString(Standard::kHbm2), "HBM2");
}

TEST(TimingTest, ActPreEnergyPositiveAndMonotoneInOpenTime) {
  const CurrentParams c;
  const TimingParams t = MakeDdr5_8800();
  const double short_open = c.ActPreEnergy(t.tRC, t.tRC);
  const double long_open = c.ActPreEnergy(FromUs(7.8), t.tRC);
  EXPECT_GT(short_open, 0.0);
  EXPECT_GT(long_open, short_open);
}

TEST(TimingTest, BurstEnergy) {
  const CurrentParams c;
  EXPECT_GT(c.BurstEnergy(FromNs(2.0), /*is_write=*/false), 0.0);
  EXPECT_GT(c.BurstEnergy(FromNs(2.0), /*is_write=*/true), 0.0);
}

TEST(TimingTest, BackgroundEnergyScalesWithTime) {
  const CurrentParams c;
  const double one = c.BackgroundEnergy(units::kSecond, false);
  const double two = c.BackgroundEnergy(2 * units::kSecond, false);
  EXPECT_NEAR(two, 2.0 * one, 1e-12);
  EXPECT_GT(c.BackgroundEnergy(units::kSecond, true), one);
}

}  // namespace
}  // namespace vrddram::dram
