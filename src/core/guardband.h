/**
 * @file
 * The §6.4 guardband + ECC experiment (Fig. 16, Table 3 inputs):
 * measure each tested row's RDT a few times, then repeatedly hammer at
 * hammer counts reduced by safety margins and record which unique
 * cells still flip, how many chips they span, and how they land in
 * SECDED / Chipkill ECC codewords.
 */
#ifndef VRDDRAM_CORE_GUARDBAND_H
#define VRDDRAM_CORE_GUARDBAND_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/rdt_profiler.h"
#include "vrd/chip_catalog.h"

namespace vrddram::core {

/// Safety margins in integer percent below the measured min RDT, in
/// the order the study reports them (MarginOutcome::margin).
inline constexpr std::array<std::uint32_t, 5> kGuardbandMargins = {
    50, 40, 30, 20, 10};

/// The study runs at 50 degC and takes each row's min RDT over 5
/// baseline measurements (the paper's count, which keeps testing time
/// reasonable).
struct GuardbandConfig {
  std::vector<std::string> devices;     ///< paper: the §5 DDR4 modules
  /// Victim rows per device, a third from each region of the bank, so
  /// a positive multiple of 3 (paper: 50).
  std::size_t rows_per_device = 6;
  std::size_t trials = 10000;
  std::vector<dram::DataPattern> patterns = {
      dram::DataPattern::kCheckered0, dram::DataPattern::kCheckered1};
  std::size_t scan_rows_per_region = 128;
  std::uint64_t base_seed = 2025;
  /// Workers for the per-device shards (RunShards): 0 selects
  /// hardware_concurrency, 1 runs the devices inline. The outcomes are
  /// bit-identical for every setting.
  std::size_t threads = 0;
};

struct MarginOutcome {
  std::uint32_t margin = 0;              ///< integer percent
  std::uint64_t hammer_count = 0;        ///< GuardbandHammerCount
  std::size_t unique_bitflips = 0;       ///< union over all trials
  std::size_t chips_touched = 0;
  std::size_t max_per_secded_codeword = 0;   ///< 8-byte granule
  std::size_t max_per_chipkill_codeword = 0; ///< 16-byte granule
  std::size_t trials_with_flips = 0;
};

struct RowGuardbandOutcome {
  std::string device;
  dram::RowAddr row = 0;
  dram::DataPattern pattern = dram::DataPattern::kCheckered0;
  std::uint64_t min_rdt = 0;  ///< min over baseline measurements
  std::vector<MarginOutcome> per_margin;
};

/// The hammer count `margin_pct` percent below `min_rdt`, rounded
/// down: min_rdt * (100 - margin_pct) / 100 in integer arithmetic,
/// clamped to at least 1 (a threshold of 0 configures no mitigation).
/// The one rule that turns a minimum RDT and a margin into a
/// threshold; `margin_pct` must be below 100.
std::uint64_t GuardbandHammerCount(std::uint64_t min_rdt,
                                   std::uint32_t margin_pct);

/// Outcomes in (device, pattern, row) order; each device is one shard
/// on the shard executor. `progress` gets one line per device, written
/// from the merge in device order.
std::vector<RowGuardbandOutcome> RunGuardbandStudy(
    const GuardbandConfig& config, std::ostream* progress = nullptr);

/// Fig. 16: histogram of unique-bitflip counts across rows at one
/// margin. Key: number of unique bitflips; value: number of rows.
std::map<std::size_t, std::size_t> BitflipHistogramAtMargin(
    const std::vector<RowGuardbandOutcome>& outcomes,
    std::uint32_t margin_pct);

/// Worst observed bit error rate across outcomes at one margin
/// (unique bitflips / row bits), the Table 3 input.
double WorstBitErrorRate(const std::vector<RowGuardbandOutcome>& outcomes,
                         std::uint32_t margin_pct, std::size_t row_bits);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_GUARDBAND_H
