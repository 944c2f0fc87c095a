/**
 * @file
 * Device geometry: the module/rank/chip/bank/row/column organization of
 * §2.1, sized from Table 1's density and chip-organization columns.
 */
#ifndef VRDDRAM_DRAM_ORGANIZATION_H
#define VRDDRAM_DRAM_ORGANIZATION_H

#include <cstdint>
#include <string>

#include "dram/types.h"

namespace vrddram::dram {

/**
 * Geometry of one device under test. For DDR4 the "device" is a module
 * rank operated in lockstep (as the FPGA tester sees it); for HBM2 it
 * is one channel of one chip.
 */
struct Organization {
  std::uint32_t density_gbit = 8;   ///< per-chip density (Table 1)
  std::uint32_t dq_bits = 8;        ///< chip interface width (x8/x16)
  std::uint32_t chips_per_rank = 8; ///< chips operated in lockstep
  std::uint32_t num_banks = 16;
  std::uint32_t rows_per_bank = 1u << 16;
  std::uint32_t row_bytes = 8192;   ///< module-level row size (64 Kibit)

  /// True if `row` is a legal row address.
  bool ValidRow(RowAddr row) const { return row < rows_per_bank; }

  /// True if `bank` is a legal bank index.
  bool ValidBank(BankId bank) const { return bank < num_banks; }

  /// Largest row address ("LRA" in Alg. 1).
  RowAddr LargestRowAddress() const { return rows_per_bank - 1; }

  std::string Describe() const;
};

/// DDR4 chip organizations used in Table 1.
Organization MakeDdr4Org(std::uint32_t density_gbit, std::uint32_t dq_bits,
                         std::uint32_t chips_per_rank);

/// One HBM2 channel: 16 banks, 16K rows, 2KB rows (per pseudo-channel).
Organization MakeHbm2Org();

/// DDR5 rank (16 Gb x8 chips, 32 banks in 8 bank groups): the geometry
/// the Fig. 14 system simulations and the PRAC device model assume.
Organization MakeDdr5Org();

}  // namespace vrddram::dram

#endif  // VRDDRAM_DRAM_ORGANIZATION_H
