#include "bender/host.h"

#include "common/error.h"

namespace vrddram::bender {

void TestHost::InitializeNeighborhood(dram::BankId bank,
                                      dram::RowAddr victim_logical,
                                      dram::DataPattern pattern) {
  const dram::PhysicalRow victim =
      device_->mapper().ToPhysical(victim_logical);
  const auto max_row =
      static_cast<std::int64_t>(device_->org().LargestRowAddress());
  for (std::int64_t d = -8; d <= 8; ++d) {
    const std::int64_t target = static_cast<std::int64_t>(victim.value) + d;
    if (target < 0 || target > max_row) {
      continue;
    }
    std::uint8_t fill;
    if (d == 0) {
      fill = dram::VictimByte(pattern);
    } else if (d == -1 || d == 1) {
      fill = dram::AggressorByte(pattern);
    } else {
      fill = dram::SurroundByte(pattern);
    }
    const dram::RowAddr logical = device_->mapper().ToLogical(
        dram::PhysicalRow{static_cast<dram::RowAddr>(target)});
    device_->BulkInitializeRow(bank, logical, fill);
  }
}

std::vector<dram::BitFlip> TestHost::ReadAndCompareVictim(
    dram::BankId bank, dram::RowAddr victim_logical,
    dram::DataPattern pattern) {
  device_->Activate(bank, victim_logical);
  device_->ReadRow(bank, victim_logical, read_scratch_);
  device_->Precharge(bank);

  return dram::DiffBits(read_scratch_, dram::VictimByte(pattern));
}

std::optional<dram::CellEncoding> TestHost::DiscoverRowEncoding(
    dram::BankId bank, dram::RowAddr logical_row, Tick wait) {
  VRD_FATAL_IF(wait <= 0, "retention wait must be positive");

  auto decayed_bits = [&](std::uint8_t fill) {
    device_->BulkInitializeRow(bank, logical_row, fill);
    device_->Sleep(wait);
    device_->Activate(bank, logical_row);
    const std::vector<std::uint8_t> data =
        device_->ReadRow(bank, logical_row);
    device_->Precharge(bank);
    return dram::CountDiffBits(data, fill);
  };

  // All-zero data decays only in anti-cell rows (0 is the charged
  // state there); all-one data decays only in true-cell rows.
  if (decayed_bits(0x00) > 0) {
    return dram::CellEncoding::kAntiCell;
  }
  if (decayed_bits(0xFF) > 0) {
    return dram::CellEncoding::kTrueCell;
  }
  return std::nullopt;
}

}  // namespace vrddram::bender
