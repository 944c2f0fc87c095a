#include "dram/organization.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vrddram::dram {
namespace {

TEST(OrganizationTest, Ddr4EightGigabitX8) {
  const Organization org = MakeDdr4Org(8, 8, 8);
  EXPECT_EQ(org.num_banks, 16u);
  EXPECT_EQ(org.row_bytes, 8192u);  // 64 Kibit module-level rows (§6.4)
  EXPECT_EQ(org.rows_per_bank, 65536u);
  // Total chip capacity must equal the density.
  const std::uint64_t page_bits_per_chip =
      static_cast<std::uint64_t>(org.row_bytes) * 8 / org.chips_per_rank;
  EXPECT_EQ(static_cast<std::uint64_t>(org.num_banks) *
                org.rows_per_bank * page_bits_per_chip,
            8ull << 30);
}

TEST(OrganizationTest, Ddr4SixteenGigabitX8HasMoreRows) {
  const Organization org8 = MakeDdr4Org(8, 8, 8);
  const Organization org16 = MakeDdr4Org(16, 8, 8);
  EXPECT_EQ(org16.rows_per_bank, 2 * org8.rows_per_bank);
}

TEST(OrganizationTest, X16HasFewerBanks) {
  const Organization org = MakeDdr4Org(16, 16, 4);
  EXPECT_EQ(org.num_banks, 8u);
}

TEST(OrganizationTest, Hbm2Channel) {
  const Organization org = MakeHbm2Org();
  EXPECT_EQ(org.num_banks, 16u);
  EXPECT_EQ(org.row_bytes, 2048u);
  EXPECT_TRUE(org.ValidRow(org.rows_per_bank - 1));
  EXPECT_FALSE(org.ValidRow(org.rows_per_bank));
}

TEST(OrganizationTest, Validators) {
  const Organization org = MakeDdr4Org(8, 8, 8);
  EXPECT_TRUE(org.ValidBank(15));
  EXPECT_FALSE(org.ValidBank(16));
  EXPECT_EQ(org.LargestRowAddress(), org.rows_per_bank - 1);
}

TEST(OrganizationTest, RejectsUnsupportedGeometry) {
  EXPECT_THROW(MakeDdr4Org(8, 4, 8), FatalError);
  EXPECT_THROW(MakeDdr4Org(32, 8, 8), FatalError);
}

TEST(OrganizationTest, Describe) {
  const Organization org = MakeDdr4Org(8, 8, 8);
  EXPECT_NE(org.Describe().find("8Gb"), std::string::npos);
}

}  // namespace
}  // namespace vrddram::dram
