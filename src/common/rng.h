/**
 * @file
 * Deterministic random-number generation for the vrddram suite.
 *
 * Every stochastic component owns its own Rng stream, seeded from a
 * human-readable label via SeedFrom(). Two runs with the same labels
 * and seeds produce bit-identical results, which is what lets the
 * benches reproduce the numbers recorded in EXPERIMENTS.md.
 *
 * The generator is xoshiro256** (Blackman & Vigna) seeded through
 * SplitMix64, the combination recommended by the xoshiro authors.
 */
#ifndef VRDDRAM_COMMON_RNG_H
#define VRDDRAM_COMMON_RNG_H

#include <cmath>
#include <cstdint>
#include <string_view>

namespace vrddram {

/// SplitMix64 step; used for seeding and for label hashing.
constexpr std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Hash an arbitrary label (e.g. "module=H1/row=5123/trap=2") together
/// with a base seed into a 64-bit stream seed.
std::uint64_t HashLabel(std::uint64_t base_seed, std::string_view label);

/// Mix several integer components into one seed (order-sensitive).
constexpr std::uint64_t MixSeed(std::uint64_t a, std::uint64_t b = 0,
                                std::uint64_t c = 0, std::uint64_t d = 0) {
  std::uint64_t s = a;
  std::uint64_t out = SplitMix64(s);
  s ^= b + 0x9e3779b97f4a7c15ull;
  out ^= SplitMix64(s);
  s ^= c + 0xc2b2ae3d27d4eb4full;
  out ^= SplitMix64(s);
  s ^= d + 0x165667b19e3779f9ull;
  out ^= SplitMix64(s);
  return out;
}

/**
 * xoshiro256** pseudo-random generator with the distribution helpers
 * the suite needs. Satisfies UniformRandomBitGenerator.
 */
class Rng {
 public:
  using result_type = std::uint64_t;

  /// The stream of a 64-bit seed (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next raw 64-bit output.
  std::uint64_t operator()() { return Next(); }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of Next().
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's method; bound > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Bernoulli trial with probability p of returning true.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Standard normal by the Marsaglia polar method: each accepted
  /// pair yields two normals, the second cached for the next call.
  /// Composed of the four primitives below, which a caller that
  /// batches many normals drives directly (draw the pairs first,
  /// transform them after) to the same values in the same order.
  double NextGaussian() {
    double cached = 0.0;
    if (TakeCachedGaussian(cached)) {
      return cached;
    }
    const PolarPair pair = NextPolarPair();
    const double factor = PolarFactor(pair.s);
    CacheGaussian(pair.v * factor);
    return pair.u * factor;
  }

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Lognormal: exp(N(mu, sigma)).
  double NextLognormal(double mu, double sigma) {
    return std::exp(NextGaussian(mu, sigma));
  }

  // -- polar-method primitives ---------------------------------------------
  /// An accepted polar draw: (u, v) uniform on the unit disc minus its
  /// centre, s = u*u + v*v in (0, 1).
  struct PolarPair {
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
  };

  /// Moves the cached normal into `out` and returns true, or returns
  /// false (and leaves `out` alone) when none is cached.
  bool TakeCachedGaussian(double& out) {
    if (!has_cached_gaussian_) {
      return false;
    }
    has_cached_gaussian_ = false;
    out = cached_gaussian_;
    return true;
  }

  /// The rejection loop: draws points of the square [-1, 1)^2 until one
  /// falls inside the unit disc and off its centre. Its consumption
  /// depends only on the raw stream.
  PolarPair NextPolarPair() {
    PolarPair p;
    do {
      p.u = 2.0 * NextDouble() - 1.0;
      p.v = 2.0 * NextDouble() - 1.0;
      p.s = p.u * p.u + p.v * p.v;
    } while (p.s >= 1.0 || p.s == 0.0);
    return p;
  }

  /// sqrt(-2 ln s / s): u*factor and v*factor are independent standard
  /// normals. Pure, so it can run long after the pair was drawn.
  static double PolarFactor(double s) {
    return std::sqrt(-2.0 * std::log(s) / s);
  }

  /// Holds `value` for the next TakeCachedGaussian (or NextGaussian).
  void CacheGaussian(double value) {
    cached_gaussian_ = value;
    has_cached_gaussian_ = true;
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace vrddram

#endif  // VRDDRAM_COMMON_RNG_H
