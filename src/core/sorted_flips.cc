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

/// Occurrences of each distinct flipping value: open addressing with
/// linear probing over a power-of-two table kept at most half full, so
/// it grows with the distinct values d, not with the series length. A
/// negative value marks an empty slot (flipping values are >= 0).
class FlipCounter {
 public:
  struct Slot {
    std::int64_t value = -1;
    std::size_t count = 0;
  };

  FlipCounter() : slots_(kInitialSlots) {}

  /// Count one occurrence of `value` (>= 0).
  void Add(std::int64_t value) {
    Slot& slot = Find(value);
    ++slot.count;
    if (slot.value < 0) {
      slot.value = value;
      if (2 * ++used_ > slots_.size()) {
        Grow();
      }
    }
  }

  /// The occupied slots, in table order.
  std::vector<Slot> Distinct() const {
    std::vector<Slot> out;
    out.reserve(used_);
    for (const Slot& slot : slots_) {
      if (slot.value >= 0) {
        out.push_back(slot);
      }
    }
    return out;
  }

 private:
  // Fits fig07's ~26 grid values per 1,000-measurement series unmoved.
  static constexpr std::size_t kInitialSlots = 64;

  /// The slot holding `value`, or the empty slot where it belongs.
  Slot& Find(std::int64_t value) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing spreads a sweep grid's arithmetic progression.
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(value) * 0x9E3779B97F4A7C15ull) >>
        shift_);
    while (slots_[i].value >= 0 && slots_[i].value != value) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    for (const Slot& slot : old) {
      if (slot.value >= 0) {
        Find(slot.value) = slot;
      }
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64 - std::countr_zero(kInitialSlots);  ///< keeps the top bits
  std::size_t used_ = 0;
};

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
  SortedFlips out;
  FlipCounter counter;
  for (const std::int64_t v : series) {
    if (v < 0) {
      ++out.no_flips;
    } else {
      counter.Add(v);
    }
  }
  out.size = series.size() - out.no_flips;

  // Only the d distinct values are ordered: O(n + d log d).
  std::vector<FlipCounter::Slot> distinct = counter.Distinct();
  std::sort(distinct.begin(), distinct.end(),
            [](const FlipCounter::Slot& a, const FlipCounter::Slot& b) {
              return a.value < b.value;
            });
  out.run_values.reserve(distinct.size());
  out.run_counts.reserve(distinct.size());
  for (const FlipCounter::Slot& slot : distinct) {
    out.run_values.push_back(slot.value);
    out.run_counts.push_back(slot.count);
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
