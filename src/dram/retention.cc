#include "dram/retention.h"

#include <cmath>

#include "common/error.h"

namespace vrddram::dram {

namespace {

/// Lognormal sigma of weak-cell retention.
constexpr double kLogSigma = 0.9;
/// Retention halves per this many degC above the reference.
constexpr double kHalvingCelsius = 10.0;
constexpr Celsius kReferenceCelsius = 50.0;

}  // namespace

RetentionParams RetentionParams::MakeDefault() {
  RetentionParams p;
  // Weak cells retain for seconds at 50 degC; the JEDEC guarantee (64
  // ms) has a wide margin, matching [149]: the weakest cells of a chip
  // sit around a few hundred ms to seconds.
  p.log_median_retention =
      std::log(static_cast<double>(2 * units::kSecond));
  return p;
}

RetentionModel::RetentionModel(std::uint64_t seed, RetentionParams params,
                               std::uint32_t row_bytes)
    : seed_(seed), params_(params), row_bytes_(row_bytes) {
  VRD_FATAL_IF(row_bytes == 0, "rows must have bytes");
}

std::vector<RetentionModel::WeakCell>
RetentionModel::WeakCellsOf(BankId bank, PhysicalRow row) const {
  Rng rng(MixSeed(seed_, bank, row.value, 0x4e7e));
  // Poisson-ish count via inversion on a small support: the expected
  // count is << 1, so sampling 0/1/2/3 from the Poisson pmf is exact
  // enough and cheap.
  const double lambda = params_.weak_cells_per_row;
  const double u = rng.NextDouble();
  const double p0 = std::exp(-lambda);
  const double p1 = p0 * lambda;
  const double p2 = p1 * lambda / 2.0;
  std::size_t count = 0;
  if (u < p0) {
    count = 0;
  } else if (u < p0 + p1) {
    count = 1;
  } else if (u < p0 + p1 + p2) {
    count = 2;
  } else {
    count = 3;
  }

  std::vector<WeakCell> cells;
  cells.reserve(count);
  const std::uint64_t row_bits = static_cast<std::uint64_t>(row_bytes_) * 8;
  for (std::size_t i = 0; i < count; ++i) {
    WeakCell cell;
    cell.bit_index = static_cast<std::uint32_t>(rng.NextBelow(row_bits));
    cell.retention_at_ref = static_cast<Tick>(rng.NextLognormal(
        params_.log_median_retention, kLogSigma));
    cells.push_back(cell);
  }
  return cells;
}

std::vector<BitFlip> RetentionModel::DecayedBits(
    BankId bank, PhysicalRow row, std::span<const std::uint8_t> data,
    const CellEncodingLayout& encoding, Tick since_restore,
    Celsius temperature) const {
  std::vector<BitFlip> flips;
  if (since_restore <= 0) {
    return flips;
  }
  const double temp_scale =
      std::exp2((temperature - kReferenceCelsius) / kHalvingCelsius);
  for (const WeakCell& cell : WeakCellsOf(bank, row)) {
    const auto effective = static_cast<Tick>(
        static_cast<double>(cell.retention_at_ref) / temp_scale);
    if (since_restore <= effective) {
      continue;
    }
    const std::uint32_t byte = cell.bit_index / 8;
    const std::uint8_t bit = cell.bit_index % 8;
    if (byte >= data.size()) {
      continue;
    }
    const bool stored = (data[byte] >> bit) & 1;
    // Only charged cells lose data by leaking.
    if (encoding.IsCharged(row, stored)) {
      flips.push_back(BitFlip{byte, bit});
    }
  }
  return flips;
}

}  // namespace vrddram::dram
