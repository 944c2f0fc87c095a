/**
 * @file
 * Test-only reference oracles for the order-dependent series
 * statistics, each computed straight from its definition:
 * stats::Autocorrelation as one serial sum per lag and
 * stats::ComputeRunLengths as one map increment per run. The library
 * sums several lags side by side and counts runs in a flat vector;
 * tests check it against these bit for bit.
 */
#ifndef VRDDRAM_TESTS_STATS_SERIES_STATS_ORACLE_H
#define VRDDRAM_TESTS_STATS_SERIES_STATS_ORACLE_H

#include <cstdint>
#include <span>
#include <vector>

#include "stats/descriptive.h"
#include "stats/run_length.h"

namespace vrddram::oracle {

/// rho(k) = c(k) / c(0), c(k) = (1/n) sum_t (x_t - mean)(x_{t+k} - mean),
/// each c(k) one sum in increasing t; 1 at every lag for a constant
/// series. Expects 2 <= xs.size() and max_lag < xs.size().
inline std::vector<double> SerialAutocorrelation(std::span<const double> xs,
                                                 std::size_t max_lag) {
  const std::size_t n = xs.size();
  const double mu = stats::Mean(xs);
  double c0 = 0.0;
  for (const double x : xs) {
    const double d = x - mu;
    const double sq = d * d;
    c0 += sq;
  }
  c0 /= static_cast<double>(n);
  std::vector<double> acf(max_lag + 1, 1.0);
  if (c0 == 0.0) {
    return acf;
  }
  for (std::size_t k = 1; k <= max_lag; ++k) {
    double ck = 0.0;
    for (std::size_t t = 0; t + k < n; ++t) {
      const double term = (xs[t] - mu) * (xs[t + k] - mu);
      ck += term;
    }
    ck /= static_cast<double>(n);
    acf[k] = ck / c0;
  }
  return acf;
}

/// Run length -> number of runs, one map increment per run.
inline stats::RunLengthHistogram MapRunLengths(
    std::span<const std::int64_t> xs) {
  stats::RunLengthHistogram hist;
  std::size_t run = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0 && xs[i] != xs[i - 1]) {
      ++hist.counts[run];
      run = 0;
    }
    ++run;
  }
  if (run > 0) {
    ++hist.counts[run];
  }
  return hist;
}

}  // namespace vrddram::oracle

#endif  // VRDDRAM_TESTS_STATS_SERIES_STATS_ORACLE_H
