#include "stats/autocorrelation.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "stats/descriptive.h"

namespace vrddram::stats {

namespace {

/// Lags a pass over the series sums side by side.
constexpr std::size_t kLagBlock = 20;

/// Adds the terms dev[t] · dev[t + k] of lags k0 .. k0 + kLags - 1 to
/// ck[0 .. kLags - 1]. The lags share one pass over the series, each in
/// its own accumulator, so they are independent add chains instead of
/// one serial chain per lag; each still adds its terms in increasing t,
/// so every sum is bit for bit the serial one.
template <std::size_t kLags>
void SumLagBlock(std::span<const double> dev, std::size_t k0, double* ck) {
  const std::size_t n = dev.size();
  std::array<double, kLags> sum{};
  // Every lag of the block has a term at each t < full.
  const std::size_t full = n - (k0 + kLags - 1);
  for (std::size_t t = 0; t < full; ++t) {
    const double d = dev[t];
    for (std::size_t j = 0; j < kLags; ++j) {
      const double term = d * dev[t + k0 + j];
      sum[j] += term;
    }
  }
  // The block's shorter lags run on past `full`.
  for (std::size_t t = full; t + k0 < n; ++t) {
    for (std::size_t j = 0; t + k0 + j < n; ++j) {
      const double term = dev[t] * dev[t + k0 + j];
      sum[j] += term;
    }
  }
  std::copy(sum.begin(), sum.end(), ck);
}

}  // namespace

std::vector<double> Autocorrelation(std::span<const double> xs,
                                    std::size_t max_lag) {
  VRD_FATAL_IF(xs.size() < 2, "ACF needs at least two samples");
  VRD_FATAL_IF(max_lag >= xs.size(), "max_lag must be < series length");
  const std::size_t n = xs.size();
  const double mu = Mean(xs);

  // Each deviation is subtracted once; it is the same double every lag
  // would compute for itself.
  std::vector<double> dev(n);
  double c0 = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    dev[t] = xs[t] - mu;
    const double sq = dev[t] * dev[t];
    c0 += sq;
  }
  c0 /= static_cast<double>(n);

  std::vector<double> acf(max_lag + 1, 0.0);
  if (c0 == 0.0) {
    // A constant series is perfectly correlated with itself at all lags.
    for (auto& r : acf) {
      r = 1.0;
    }
    return acf;
  }
  acf[0] = 1.0;
  // The default 40 lags are two full blocks; lags left over past the
  // last full block are summed one at a time.
  std::array<double, kLagBlock> ck{};
  for (std::size_t k0 = 1; k0 <= max_lag;) {
    const std::size_t lags = std::min(kLagBlock, max_lag + 1 - k0);
    if (lags == kLagBlock) {
      SumLagBlock<kLagBlock>(dev, k0, ck.data());
    } else {
      for (std::size_t j = 0; j < lags; ++j) {
        SumLagBlock<1>(dev, k0 + j, &ck[j]);
      }
    }
    for (std::size_t j = 0; j < lags; ++j) {
      acf[k0 + j] = (ck[j] / static_cast<double>(n)) / c0;
    }
    k0 += lags;
  }
  return acf;
}

double WhiteNoiseBound95(std::size_t n) {
  VRD_FATAL_IF(n == 0, "white-noise bound of empty series");
  return 1.96 / std::sqrt(static_cast<double>(n));
}

double FractionSignificantLags(std::span<const double> acf, std::size_t n) {
  VRD_FATAL_IF(acf.size() < 2, "need at least lag 1");
  const double bound = WhiteNoiseBound95(n);
  std::size_t significant = 0;
  for (std::size_t k = 1; k < acf.size(); ++k) {
    if (std::abs(acf[k]) > bound) {
      ++significant;
    }
  }
  return static_cast<double>(significant) /
         static_cast<double>(acf.size() - 1);
}

}  // namespace vrddram::stats
