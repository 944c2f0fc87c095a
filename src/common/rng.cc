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

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
  // xoshiro must not start from the all-zero state; SplitMix64 cannot
  // produce four zero outputs from any seed, but guard regardless.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9e3779b97f4a7c15ull;
  }
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

}  // namespace vrddram
