/**
 * @file
 * Host-side testing API in the style of DRAM Bender / SoftMC: a
 * TestHost with the paper's methodology building blocks that the
 * experiments drive directly - neighbourhood initialization per
 * Table 2, read-and-compare, and true-/anti-cell discovery.
 */
#ifndef VRDDRAM_BENDER_HOST_H
#define VRDDRAM_BENDER_HOST_H

#include <optional>
#include <vector>

#include "dram/device.h"

namespace vrddram::bender {

/**
 * High-level testing operations composed from device commands: the
 * setup and readout around a hammer test, and retention-based
 * true-/anti-cell discovery.
 */
class TestHost {
 public:
  explicit TestHost(dram::Device& device) : device_(&device) {}

  dram::Device& device() { return *device_; }

  /**
   * Alg. 1's initialize_rows: write the victim's physical row, the two
   * physical aggressors (V +- 1), and the surrounding rows V +- [2:8]
   * with the Table 2 bytes of `pattern`. Rows outside the bank are
   * skipped (edge victims are not used by the methodology anyway).
   */
  void InitializeNeighborhood(dram::BankId bank,
                              dram::RowAddr victim_logical,
                              dram::DataPattern pattern);

  /// Read the victim row and diff it against its expected pattern byte.
  std::vector<dram::BitFlip> ReadAndCompareVictim(
      dram::BankId bank, dram::RowAddr victim_logical,
      dram::DataPattern pattern);

  /**
   * True-/anti-cell discovery ([1, 214, 215], §5.6): write all-zeros,
   * pause refresh far beyond the retention time, and observe the decay
   * direction; then repeat with all-ones. Returns nullopt if the row
   * has no retention-weak cell to betray its encoding.
   */
  std::optional<dram::CellEncoding> DiscoverRowEncoding(
      dram::BankId bank, dram::RowAddr logical_row, Tick wait);

 private:
  dram::Device* device_;
  /// Reused by ReadAndCompareVictim: a test loop reads the same
  /// victim row every iteration, so one buffer serves them all.
  std::vector<std::uint8_t> read_scratch_;
};

}  // namespace vrddram::bender

#endif  // VRDDRAM_BENDER_HOST_H
