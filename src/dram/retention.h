/**
 * @file
 * Data-retention fault model. Two roles in the suite:
 *
 *  1. Interference control (§3.1): the characterization methodology
 *     must finish every test strictly within the refresh window so
 *     retention failures cannot pollute RDT measurements; this model
 *     makes that rule testable (a sloppy test program *does* pick up
 *     retention flips).
 *  2. True-/anti-cell reverse engineering (§5.6): pausing refresh far
 *     beyond the retention time decays weak cells toward their
 *     discharged state, revealing the encoding of each row.
 *
 * Each row has a sparse set of weak-retention cells with lognormal
 * retention times; retention halves per ~10 degC (the usual DRAM
 * leakage temperature dependence).
 */
#ifndef VRDDRAM_DRAM_RETENTION_H
#define VRDDRAM_DRAM_RETENTION_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dram/cell_encoding.h"
#include "dram/types.h"

namespace vrddram::dram {

struct RetentionParams {
  /// Expected number of weak-retention cells per row.
  double weak_cells_per_row = 0.25;
  /// ln of the median retention time (ticks) of a weak cell at 50 degC.
  double log_median_retention = 0.0;  // set in MakeDefault()

  static RetentionParams MakeDefault();
};

/**
 * Retention model for one device. Deterministic per (seed, bank, row):
 * the weak-cell population is a manufacturing artifact.
 */
class RetentionModel {
 public:
  RetentionModel(std::uint64_t seed, RetentionParams params,
                 std::uint32_t row_bytes);

  struct WeakCell {
    std::uint32_t bit_index = 0;  ///< bit within the row
    Tick retention_at_ref = 0;    ///< retention time at 50 degC
  };

  /// The (possibly empty) weak-cell set of a row.
  std::vector<WeakCell> WeakCellsOf(BankId bank, PhysicalRow row) const;

  /**
   * Bits of `row` that have decayed given the time since the last
   * charge restoration and the temperature history (approximated by
   * the current temperature). Only cells whose *stored* value is the
   * charged state can decay.
   */
  std::vector<BitFlip> DecayedBits(BankId bank, PhysicalRow row,
                                   std::span<const std::uint8_t> data,
                                   const CellEncodingLayout& encoding,
                                   Tick since_restore,
                                   Celsius temperature) const;

 private:
  std::uint64_t seed_;
  RetentionParams params_;
  std::uint32_t row_bytes_;
};

}  // namespace vrddram::dram

#endif  // VRDDRAM_DRAM_RETENTION_H
