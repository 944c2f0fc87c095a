#include "dram/retention.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace vrddram::dram {
namespace {

class RetentionTest : public ::testing::Test {
 protected:
  RetentionTest()
      : params_(MakeParams()),
        model_(/*seed=*/77, params_, /*row_bytes=*/1024),
        encoding_(/*seed=*/5, /*anti_fraction=*/0.5) {}

  static RetentionParams MakeParams() {
    RetentionParams p = RetentionParams::MakeDefault();
    // Make weak cells common so tests find them quickly.
    p.weak_cells_per_row = 2.0;
    return p;
  }

  /// First row (searching upward) with at least one weak cell.
  PhysicalRow FindWeakRow() const {
    for (RowAddr r = 0; r < 512; ++r) {
      if (!model_.WeakCellsOf(0, PhysicalRow{r}).empty()) {
        return PhysicalRow{r};
      }
    }
    ADD_FAILURE() << "no weak row found";
    return PhysicalRow{0};
  }

  RetentionParams params_;
  RetentionModel model_;
  CellEncodingLayout encoding_;
};

TEST_F(RetentionTest, WeakCellsAreDeterministic) {
  const auto a = model_.WeakCellsOf(0, PhysicalRow{7});
  const auto b = model_.WeakCellsOf(0, PhysicalRow{7});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bit_index, b[i].bit_index);
    EXPECT_EQ(a[i].retention_at_ref, b[i].retention_at_ref);
  }
}

TEST_F(RetentionTest, DifferentRowsDifferentCells) {
  // Over many rows, the weak-cell populations must differ.
  std::size_t distinct = 0;
  auto first = model_.WeakCellsOf(0, PhysicalRow{0});
  for (RowAddr r = 1; r < 64; ++r) {
    const auto cells = model_.WeakCellsOf(0, PhysicalRow{r});
    if (cells.size() != first.size()) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0u);
}

TEST_F(RetentionTest, NoDecayWithinRefreshWindow) {
  const PhysicalRow row = FindWeakRow();
  const std::vector<std::uint8_t> data(1024, 0xFF);
  // 64 ms is guaranteed retention; weak cells retain for ~seconds.
  const auto flips = model_.DecayedBits(0, row, data, encoding_,
                                        64 * units::kMillisecond, 50.0);
  EXPECT_TRUE(flips.empty());
}

TEST_F(RetentionTest, DecayAfterLongPause) {
  const PhysicalRow row = FindWeakRow();
  // Data charged regardless of encoding: decay must eventually occur.
  const std::uint8_t fill =
      encoding_.RowEncoding(row) == CellEncoding::kAntiCell ? 0x00 : 0xFF;
  const std::vector<std::uint8_t> data(1024, fill);
  const auto flips = model_.DecayedBits(
      0, row, data, encoding_, 3600 * units::kSecond, 50.0);
  EXPECT_FALSE(flips.empty());
}

TEST_F(RetentionTest, OnlyChargedCellsDecay) {
  const PhysicalRow row = FindWeakRow();
  // Discharged data: anti rows discharged at 0xFF, true rows at 0x00.
  const std::uint8_t fill =
      encoding_.RowEncoding(row) == CellEncoding::kAntiCell ? 0xFF : 0x00;
  const std::vector<std::uint8_t> data(1024, fill);
  const auto flips = model_.DecayedBits(
      0, row, data, encoding_, 3600 * units::kSecond, 50.0);
  EXPECT_TRUE(flips.empty());
}

TEST_F(RetentionTest, HigherTemperatureDecaysEarlier) {
  const PhysicalRow row = FindWeakRow();
  const auto cells = model_.WeakCellsOf(0, row);
  ASSERT_FALSE(cells.empty());
  const std::uint8_t fill =
      encoding_.RowEncoding(row) == CellEncoding::kAntiCell ? 0x00 : 0xFF;
  const std::vector<std::uint8_t> data(1024, fill);

  // Pick a pause just below the weakest cell's 50 degC retention: no
  // decay at 50 degC, decay at 80 degC (retention halves per 10 degC).
  Tick weakest = cells.front().retention_at_ref;
  for (const auto& cell : cells) {
    weakest = std::min(weakest, cell.retention_at_ref);
  }
  const Tick pause = weakest - 1;
  EXPECT_TRUE(
      model_.DecayedBits(0, row, data, encoding_, pause, 50.0).empty());
  EXPECT_FALSE(
      model_.DecayedBits(0, row, data, encoding_, pause, 80.0).empty());
}

TEST_F(RetentionTest, ZeroElapsedNeverDecays) {
  const PhysicalRow row = FindWeakRow();
  const std::vector<std::uint8_t> data(1024, 0xFF);
  EXPECT_TRUE(model_.DecayedBits(0, row, data, encoding_, 0, 95.0).empty());
}

TEST(CellEncodingTest, RowGranularityAndDeterminism) {
  const CellEncodingLayout layout(/*seed=*/9, /*anti_fraction=*/0.4);
  std::size_t anti = 0;
  for (RowAddr r = 0; r < 1000; ++r) {
    const CellEncoding e = layout.RowEncoding(PhysicalRow{r});
    EXPECT_EQ(e, layout.RowEncoding(PhysicalRow{r}));
    if (e == CellEncoding::kAntiCell) {
      ++anti;
    }
  }
  // ~40% anti-cell rows.
  EXPECT_NEAR(static_cast<double>(anti) / 1000.0, 0.4, 0.06);
}

TEST(CellEncodingTest, ChargeSemantics) {
  const CellEncodingLayout layout(/*seed=*/10, /*anti_fraction=*/0.5);
  // Find one row of each encoding.
  PhysicalRow true_row{0};
  PhysicalRow anti_row{0};
  bool found_true = false;
  bool found_anti = false;
  for (RowAddr r = 0; r < 100 && !(found_true && found_anti); ++r) {
    if (layout.RowEncoding(PhysicalRow{r}) == CellEncoding::kTrueCell) {
      true_row = PhysicalRow{r};
      found_true = true;
    } else {
      anti_row = PhysicalRow{r};
      found_anti = true;
    }
  }
  ASSERT_TRUE(found_true && found_anti);
  EXPECT_TRUE(layout.IsCharged(true_row, true));
  EXPECT_FALSE(layout.IsCharged(true_row, false));
  EXPECT_TRUE(layout.IsCharged(anti_row, false));
  EXPECT_FALSE(layout.IsCharged(anti_row, true));
}

}  // namespace
}  // namespace vrddram::dram
