#include "dram/device.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.h"
#include "dram/write_row.h"

namespace vrddram::dram {
namespace {

/// Records engine interactions and injects scripted flips.
class FakeModel final : public ReadDisturbanceModel {
 public:
  struct ActRecord {
    BankId bank;
    PhysicalRow row;
    std::uint64_t count;
    Tick t_on;
  };

  void OnActivations(BankId bank, PhysicalRow row, std::uint64_t count,
                     Tick t_on, Tick, Celsius,
                     std::span<const std::uint8_t>) override {
    activations.push_back(ActRecord{bank, row, count, t_on});
  }
  void OnRestore(BankId bank, PhysicalRow row, Tick) override {
    restores.push_back({bank, row, 1, 0});
  }
  void Evaluate(const VictimContext& ctx,
                std::vector<BitFlip>& out) override {
    ++evaluations;
    out.clear();
    if (flip_next && ctx.row == flip_row) {
      flip_next = false;
      out.push_back(pending_flip);
    }
  }

  std::vector<ActRecord> activations;
  std::vector<ActRecord> restores;
  int evaluations = 0;
  bool flip_next = false;
  PhysicalRow flip_row{0};
  BitFlip pending_flip{0, 0};
};

DeviceConfig SmallConfig() {
  DeviceConfig config;
  config.name = "TEST";
  config.org.density_gbit = 1;
  config.org.dq_bits = 8;
  config.org.chips_per_rank = 8;
  config.org.num_banks = 2;
  config.org.rows_per_bank = 64;
  config.org.row_bytes = 128;  // two 64 B bursts
  config.timing = MakeDdr4_3200();
  config.row_mapping = RowMappingScheme::kDirect;
  config.seed = 99;
  return config;
}

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest() {
    auto model = std::make_unique<FakeModel>();
    model_ = model.get();
    device_ = std::make_unique<Device>(SmallConfig(), std::move(model));
  }

  FakeModel* model_;
  std::unique_ptr<Device> device_;
};

TEST_F(DeviceTest, WriteReadRoundTrip) {
  device_->Activate(0, 5);
  WriteRow(*device_, 0, 5, 0xAB);
  const std::vector<std::uint8_t> data = device_->ReadRow(0, 5);
  device_->Precharge(0);
  ASSERT_EQ(data.size(), 128u);
  for (const std::uint8_t byte : data) {
    EXPECT_EQ(byte, 0xAB);
  }
}

TEST_F(DeviceTest, PartialWrite) {
  device_->Activate(0, 5);
  WriteRow(*device_, 0, 5, 0x00);
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  device_->Write(0, 5, /*col=*/10, bytes);
  const std::vector<std::uint8_t> data = device_->ReadRow(0, 5);
  EXPECT_EQ(data[10], 1);
  EXPECT_EQ(data[12], 3);
  EXPECT_EQ(data[13], 0);
}

TEST_F(DeviceTest, ReadOfClosedRowThrows) {
  EXPECT_THROW(device_->ReadRow(0, 5), FatalError);
  device_->Activate(0, 5);
  EXPECT_THROW(device_->ReadRow(0, 6), FatalError);
}

TEST_F(DeviceTest, UnwrittenRowsHoldDeterministicPowerupData) {
  device_->Activate(0, 7);
  const std::vector<std::uint8_t> first = device_->ReadRow(0, 7);
  device_->Precharge(0);
  auto other = std::make_unique<Device>(SmallConfig(),
                                        std::make_unique<FakeModel>());
  other->Activate(0, 7);
  EXPECT_EQ(other->ReadRow(0, 7), first);
}

TEST_F(DeviceTest, CommandCountsTracked) {
  device_->Activate(0, 1);
  WriteRow(*device_, 0, 1, 0x00);  // 2 bursts
  device_->ReadRow(0, 1);          // 2 bursts
  device_->Precharge(0);
  EXPECT_EQ(device_->counts().act, 1u);
  EXPECT_EQ(device_->counts().wr, 2u);
  EXPECT_EQ(device_->counts().rd, 2u);
  EXPECT_EQ(device_->counts().pre, 1u);
}

TEST_F(DeviceTest, TimeAdvancesMonotonically) {
  const Tick t0 = device_->Now();
  device_->Activate(0, 1);
  const Tick t1 = device_->Now();
  WriteRow(*device_, 0, 1, 0xFF);
  const Tick t2 = device_->Now();
  device_->Precharge(0);
  const Tick t3 = device_->Now();
  EXPECT_GE(t1, t0);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t3, t2);
  // PRE waits at least tRAS after ACT.
  EXPECT_GE(t3 - t1, device_->timing().tRAS);
}

TEST_F(DeviceTest, SleepAdvancesTime) {
  const Tick t0 = device_->Now();
  device_->Sleep(12345);
  EXPECT_EQ(device_->Now(), t0 + 12345);
  EXPECT_THROW(device_->Sleep(-1), FatalError);
}

TEST_F(DeviceTest, PrechargeReportsAggressionToModel) {
  device_->Activate(0, 5);
  device_->Sleep(device_->timing().tREFI);  // RowPress-style long open
  device_->Precharge(0);
  ASSERT_EQ(model_->activations.size(), 1u);
  EXPECT_EQ(model_->activations[0].row.value, 5u);
  EXPECT_EQ(model_->activations[0].count, 1u);
  EXPECT_GE(model_->activations[0].t_on, device_->timing().tREFI);
}

TEST_F(DeviceTest, ActivateMaterializesPendingFlips) {
  device_->Activate(0, 5);
  WriteRow(*device_, 0, 5, 0x00);
  device_->Precharge(0);
  // Script a flip for the next evaluation of row 5.
  model_->flip_next = true;
  model_->flip_row = PhysicalRow{5};
  model_->pending_flip = BitFlip{3, 2};
  device_->Activate(0, 5);
  const std::vector<std::uint8_t> data = device_->ReadRow(0, 5);
  device_->Precharge(0);
  EXPECT_EQ(data[3], 0x04);  // bit 2 flipped
}

TEST_F(DeviceTest, HammerDoubleSidedFeedsBothAggressors) {
  device_->HammerDoubleSided(0, 8, 1000, device_->timing().tRAS);
  ASSERT_EQ(model_->activations.size(), 2u);
  EXPECT_EQ(model_->activations[0].row.value, 7u);
  EXPECT_EQ(model_->activations[1].row.value, 9u);
  EXPECT_EQ(model_->activations[0].count, 1000u);
  EXPECT_EQ(device_->counts().act, 2000u);
  EXPECT_EQ(device_->counts().pre, 2000u);
}

TEST_F(DeviceTest, HammerAdvancesTimeByCycleCount) {
  const Tick t0 = device_->Now();
  const Tick t_on = device_->timing().tRAS;
  device_->HammerDoubleSided(0, 8, 500, t_on);
  const Tick expected =
      static_cast<Tick>(2 * 500) * (t_on + device_->timing().tRP);
  EXPECT_EQ(device_->Now() - t0, expected);
}

TEST_F(DeviceTest, HammerRejectsEdgeVictims) {
  EXPECT_THROW(
      device_->HammerDoubleSided(0, 0, 10, device_->timing().tRAS),
      FatalError);
  EXPECT_THROW(
      device_->HammerDoubleSided(0, 63, 10, device_->timing().tRAS),
      FatalError);
}

TEST_F(DeviceTest, HammerRejectsIllegalTOn) {
  EXPECT_THROW(
      device_->HammerDoubleSided(0, 8, 10, device_->timing().tRAS - 1),
      FatalError);
  EXPECT_THROW(
      device_->HammerDoubleSided(0, 8, 10,
                                 device_->timing().MaxRowOpenTime() + 1),
      FatalError);
  EXPECT_THROW(
      device_->HammerSingleSided(0, 8, 10, device_->timing().tRAS - 1),
      FatalError);
  EXPECT_THROW(
      device_->HammerSingleSided(0, 8, 10,
                                 device_->timing().MaxRowOpenTime() + 1),
      FatalError);
}

TEST_F(DeviceTest, BulkInitMatchesCommandPath) {
  // Same data, same elapsed time, same command counts as the explicit
  // ACT + write train + PRE sequence.
  auto exact = std::make_unique<Device>(SmallConfig(),
                                        std::make_unique<FakeModel>());
  exact->Activate(0, 3);
  WriteRow(*exact, 0, 3, 0x5A);
  exact->Precharge(0);

  device_->BulkInitializeRow(0, 3, 0x5A);

  EXPECT_EQ(device_->Now(), exact->Now());
  EXPECT_EQ(device_->counts().act, exact->counts().act);
  EXPECT_EQ(device_->counts().wr, exact->counts().wr);
  EXPECT_EQ(device_->counts().pre, exact->counts().pre);
  // The stored bytes, read back through ACT/RD/PRE on both devices.
  auto read_back = [](Device& device) {
    device.Activate(0, 3);
    std::vector<std::uint8_t> data = device.ReadRow(0, 3);
    device.Precharge(0);
    return data;
  };
  EXPECT_EQ(read_back(*device_), read_back(*exact));
}

TEST_F(DeviceTest, OnDieEccRequiresHardware) {
  EXPECT_THROW(device_->SetOnDieEccEnabled(true), FatalError);
}

TEST(DeviceEccTest, OnDieEccHidesSingleBitFlips) {
  DeviceConfig config = SmallConfig();
  config.has_on_die_ecc = true;
  auto model = std::make_unique<FakeModel>();
  FakeModel* fake = model.get();
  Device device(config, std::move(model));  // ECC on at power-up

  device.Activate(0, 5);
  WriteRow(device, 0, 5, 0x00);
  device.Precharge(0);
  fake->flip_next = true;
  fake->flip_row = PhysicalRow{5};
  fake->pending_flip = BitFlip{0, 0};
  device.Activate(0, 5);
  // ECC on: the single flip is corrected on read.
  std::vector<std::uint8_t> data = device.ReadRow(0, 5);
  EXPECT_EQ(data[0], 0x00);
  // §3.1 methodology: disabling ECC via the mode register exposes it.
  device.SetOnDieEccEnabled(false);
  data = device.ReadRow(0, 5);
  EXPECT_EQ(data[0], 0x01);
  device.Precharge(0);
}

TEST(DeviceRetentionTest, LongUnrefreshedPauseCorruptsData) {
  DeviceConfig config = SmallConfig();
  config.retention.weak_cells_per_row = 3.0;  // make weak cells common
  Device device(config, nullptr);

  // Find a row that decays: write charged data everywhere, wait far
  // beyond retention, read back.
  bool corrupted = false;
  for (RowAddr row = 0; row < 32 && !corrupted; ++row) {
    for (const std::uint8_t fill : {0x00, 0xFF}) {
      device.Activate(0, row);
      WriteRow(device, 0, row, fill);
      device.Precharge(0);
      device.Sleep(600 * units::kSecond);
      device.Activate(0, row);
      const std::vector<std::uint8_t> data = device.ReadRow(0, row);
      device.Precharge(0);
      for (const std::uint8_t byte : data) {
        if (byte != fill) {
          corrupted = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(corrupted)
      << "retention decay must corrupt unrefreshed rows";
}

}  // namespace
}  // namespace vrddram::dram

namespace vrddram::dram {
namespace {

TEST(DeviceEccTest, MultiBitWordEscapesOnDieEcc) {
  DeviceConfig config = SmallConfig();
  config.has_on_die_ecc = true;
  auto model = std::make_unique<FakeModel>();
  FakeModel* fake = model.get();
  Device device(config, std::move(model));

  device.Activate(0, 5);
  WriteRow(device, 0, 5, 0x00);
  device.Precharge(0);
  // Two flips in the same 64-bit word: beyond SEC.
  fake->flip_next = true;
  fake->flip_row = PhysicalRow{5};
  fake->pending_flip = BitFlip{0, 0};
  device.Activate(0, 5);
  device.Precharge(0);
  fake->flip_next = true;
  fake->pending_flip = BitFlip{1, 3};
  device.Activate(0, 5);
  const std::vector<std::uint8_t> data = device.ReadRow(0, 5);
  device.Precharge(0);
  EXPECT_EQ(data[0], 0x01);
  EXPECT_EQ(data[1], 0x08);
}

}  // namespace
}  // namespace vrddram::dram
