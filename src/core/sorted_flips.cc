#include "core/sorted_flips.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/error.h"

namespace vrddram::core {

namespace {

using Uint128 = unsigned __int128;

int BitWidth(Uint128 x) {
  const auto high = static_cast<std::uint64_t>(x >> 64);
  return high != 0 ? 64 + std::bit_width(high)
                   : std::bit_width(static_cast<std::uint64_t>(x));
}

/// num / den rounded once to the nearest double (ties to even), for
/// den > 0 below 2^64. The quotient is scaled to at least 56
/// significant bits and a nonzero remainder is folded into its lowest
/// bit, below the rounding position, so the one conversion to double
/// rounds the exact quotient.
double RoundedQuotient(Uint128 num, Uint128 den) {
  const int shift = std::max(0, 56 + BitWidth(den) - BitWidth(num));
  const Uint128 scaled = num << shift;
  Uint128 quotient = scaled / den;
  if (scaled % den != 0) {
    quotient |= 1;
  }
  return std::ldexp(static_cast<double>(quotient), -shift);
}

}  // namespace

std::int64_t SortedFlips::AtRank(std::size_t i) const {
  VRD_ASSERT(i < size);
  std::size_t j = 0;
  while (i >= run_counts[j]) {
    i -= run_counts[j];
    ++j;
  }
  return run_values[j];
}

SortedFlips BuildSortedFlips(std::span<const std::int64_t> series) {
  std::vector<std::int64_t> sorted;
  sorted.reserve(series.size());
  for (const std::int64_t v : series) {
    if (v >= 0) {
      sorted.push_back(v);
    }
  }
  std::sort(sorted.begin(), sorted.end());

  SortedFlips out;
  out.size = sorted.size();
  out.no_flips = series.size() - sorted.size();
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[i]) {
      ++j;
    }
    out.run_values.push_back(sorted[i]);
    out.run_counts.push_back(j - i);
    i = j;
  }
  return out;
}

FlipMoments ComputeMoments(const SortedFlips& flips) {
  VRD_FATAL_IF(flips.size == 0, "series has no flipping measurements");
  VRD_FATAL_IF(flips.run_values.front() < 0,
               "flipping measurements must not be negative");
  // n · max < 2^63 keeps n·Σx² and (Σx)² below 2^126, and n ≤ 2^32
  // keeps n(n − 1) below 2^64.
  const Uint128 n = flips.size;
  VRD_FATAL_IF(n > (Uint128{1} << 32) ||
                   n * static_cast<std::uint64_t>(flips.run_values.back()) >=
                       (Uint128{1} << 63),
               "series too large for exact moments: " +
                   std::to_string(flips.size) + " measurements up to " +
                   std::to_string(flips.run_values.back()));
  Uint128 sum = 0;
  Uint128 sum_sq = 0;
  for (std::size_t j = 0; j < flips.run_values.size(); ++j) {
    const auto v = static_cast<Uint128>(flips.run_values[j]);
    const Uint128 count = flips.run_counts[j];
    sum += v * count;
    sum_sq += v * v * count;
  }
  FlipMoments out;
  out.mean = RoundedQuotient(sum, n);
  if (n > 1) {
    out.stddev =
        std::sqrt(RoundedQuotient(n * sum_sq - sum * sum, n * (n - 1)));
  }
  out.cv = (out.mean != 0.0) ? out.stddev / out.mean : 0.0;
  return out;
}

}  // namespace vrddram::core
