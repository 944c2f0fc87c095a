/**
 * @file
 * Test helper: fill the open row through the public command path.
 */
#ifndef VRDDRAM_TESTS_DRAM_WRITE_ROW_H
#define VRDDRAM_TESTS_DRAM_WRITE_ROW_H

#include <cstdint>
#include <vector>

#include "dram/device.h"

namespace vrddram::dram {

/// Fill the entire open row with `fill`: one Write of a row-sized
/// buffer, so the full burst train (e.g. 128 bursts for an 8 KiB row).
inline void WriteRow(Device& device, BankId bank, RowAddr logical_row,
                     std::uint8_t fill) {
  const std::vector<std::uint8_t> bytes(device.org().row_bytes, fill);
  device.Write(bank, logical_row, /*col=*/0, bytes);
}

}  // namespace vrddram::dram

#endif  // VRDDRAM_TESTS_DRAM_WRITE_ROW_H
