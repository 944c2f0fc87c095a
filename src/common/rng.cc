#include "common/rng.h"

#include "common/error.h"

namespace vrddram {

std::uint64_t HashLabel(std::uint64_t base_seed, std::string_view label) {
  // FNV-1a over the label bytes, then mixed with the base seed through
  // SplitMix64 so that nearby labels map to unrelated streams.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : label) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  std::uint64_t s = base_seed ^ h;
  std::uint64_t out = SplitMix64(s);
  out ^= SplitMix64(s);
  return out;
}

void Rng::Reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
  // xoshiro must not start from the all-zero state; SplitMix64 cannot
  // produce four zero outputs from any seed, but guard regardless.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9e3779b97f4a7c15ull;
  }
  has_cached_gaussian_ = false;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  VRD_ASSERT_MSG(bound > 0, "NextBelow requires bound > 0");
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  VRD_ASSERT_MSG(lo <= hi, "NextInRange requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Marsaglia polar method: no trig, numerically robust.
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::NextExponential(double lambda) {
  VRD_ASSERT_MSG(lambda > 0.0, "NextExponential requires lambda > 0");
  // 1 - NextDouble() is in (0, 1], so the log is finite.
  return -std::log(1.0 - NextDouble()) / lambda;
}

}  // namespace vrddram
