/**
 * @file
 * True-/anti-cell layout (§5.6). Real chips interleave rows of true
 * cells (logic-1 = charged) and anti cells (logic-1 = discharged); the
 * layout is fixed at manufacturing. We model row-granularity encoding,
 * as observed for the modules the paper tests (M0: 20 of 50 sampled
 * rows were anti-cell rows).
 */
#ifndef VRDDRAM_DRAM_CELL_ENCODING_H
#define VRDDRAM_DRAM_CELL_ENCODING_H

#include <cstdint>

#include "common/error.h"
#include "common/rng.h"
#include "dram/types.h"

namespace vrddram::dram {

class CellEncodingLayout {
 public:
  /**
   * @param seed          device-unique seed (the layout is a
   *                      manufacturing artifact: fixed per device,
   *                      varying across devices)
   * @param anti_fraction fraction of rows using anti-cell encoding
   */
  CellEncodingLayout(std::uint64_t seed, double anti_fraction)
      : seed_(seed), anti_fraction_(anti_fraction) {
    VRD_FATAL_IF(anti_fraction < 0.0 || anti_fraction > 1.0,
                 "anti_fraction must be in [0, 1]");
  }

  /// Encoding of every cell in the given physical row.
  CellEncoding RowEncoding(PhysicalRow row) const {
    const std::uint64_t h = MixSeed(seed_, row.value, 0xce11u);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < anti_fraction_ ? CellEncoding::kAntiCell
                              : CellEncoding::kTrueCell;
  }

  /**
   * Whether the capacitor of the cell holding `stored_bit` is charged.
   * True cells charge for 1, anti cells charge for 0.
   */
  bool IsCharged(PhysicalRow row, bool stored_bit) const {
    const bool anti = RowEncoding(row) == CellEncoding::kAntiCell;
    return stored_bit != anti;
  }

  double anti_fraction() const { return anti_fraction_; }

 private:
  std::uint64_t seed_;
  double anti_fraction_;
};

}  // namespace vrddram::dram

#endif  // VRDDRAM_DRAM_CELL_ENCODING_H
