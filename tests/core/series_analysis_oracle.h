/**
 * @file
 * Test-only reference oracle for core::AnalyzeSeries: every statistic
 * computed straight from its definition, each order-free one from its
 * own sorted copy of the flipping measurements — the unique-value
 * count, Tukey's hinges, the §4.1 binned chi-square test and the
 * Fig. 4 unique-value histogram. The ACF and the run lengths are the
 * serial definitions of stats/series_stats_oracle.h. The mean and
 * variance are the exact rationals Σx/n and (nΣx² − (Σx)²)/(n(n − 1)),
 * summed in measurement order and rounded by searching the doubles
 * next to an estimate for the nearest one. core::AnalyzeSeries reads all of them from one
 * core::SortedFlips table instead; tests check it against this oracle
 * bit for bit.
 */
#ifndef VRDDRAM_TESTS_CORE_SERIES_ANALYSIS_ORACLE_H
#define VRDDRAM_TESTS_CORE_SERIES_ANALYSIS_ORACLE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.h"
#include "core/series_analysis.h"
#include "stats/autocorrelation.h"
#include "stats/chi_square.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/run_length.h"
#include "stats/series_stats_oracle.h"

namespace vrddram::oracle {

namespace series_detail {

using Uint128 = unsigned __int128;

/// The double nearest to num / den (ties to the even mantissa): the
/// estimate and its two neighbours, written as integer mantissas over
/// one common power of two, compared by their exact distance to the
/// quotient. Assumes a quotient far from the subnormal range and
/// magnitudes for which num · 2^-exp fits 128 bits.
inline double NearestDouble(Uint128 num, Uint128 den) {
  if (num == 0) {
    return 0.0;
  }
  const double estimate =
      static_cast<double>(num) / static_cast<double>(den);
  const double candidates[] = {
      std::nextafter(estimate, 0.0), estimate,
      std::nextafter(estimate, std::numeric_limits<double>::infinity())};
  int exp = std::numeric_limits<int>::max();
  for (const double c : candidates) {
    int e = 0;
    std::frexp(c, &e);
    exp = std::min(exp, e - 53);
  }
  VRD_ASSERT(exp <= 0);
  const Uint128 target = num << -exp;  // num / den == target / (den 2^-exp)
  double best = 0.0;
  Uint128 best_err = 0;
  bool best_even = false;
  bool first = true;
  for (const double c : candidates) {
    const auto mantissa = static_cast<Uint128>(std::ldexp(c, -exp));
    const Uint128 scaled = mantissa * den;
    const Uint128 err = scaled > target ? scaled - target : target - scaled;
    int e = 0;
    const auto own = static_cast<std::uint64_t>(
        std::ldexp(std::frexp(c, &e), 53));
    const bool even = own % 2 == 0;
    if (first || err < best_err || (err == best_err && even && !best_even)) {
      best = c;
      best_err = err;
      best_even = even;
      first = false;
    }
  }
  return best;
}

struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
};

/// Exact sums over the series in measurement order, then one rounding
/// each for the mean and the variance.
inline Moments ClosedFormMoments(std::span<const std::int64_t> valid) {
  Uint128 sum = 0;
  Uint128 sum_sq = 0;
  for (const std::int64_t v : valid) {
    sum += static_cast<Uint128>(v);
    sum_sq += static_cast<Uint128>(v) * static_cast<Uint128>(v);
  }
  const Uint128 n = valid.size();
  Moments out;
  out.mean = NearestDouble(sum, n);
  if (n > 1) {
    out.stddev =
        std::sqrt(NearestDouble(n * sum_sq - sum * sum, n * (n - 1)));
  }
  return out;
}

inline std::vector<double> Sorted(std::span<const double> xs) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

inline std::size_t CountUnique(std::span<const double> xs) {
  std::vector<double> sorted = Sorted(xs);
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted.size();
}

// Paper footnote 6: Q1/Q3 are the medians of the first/second halves
// of the ordered data (Tukey's hinges, excluding the middle element
// for odd n).
inline stats::BoxStats BoxStats(std::span<const double> xs, double mean) {
  const std::vector<double> sorted = Sorted(xs);
  auto median_of = [&](std::size_t lo, std::size_t hi) {
    const std::size_t n = hi - lo;
    const std::size_t mid = lo + n / 2;
    if (n % 2 == 1) {
      return sorted[mid];
    }
    return 0.5 * (sorted[mid - 1] + sorted[mid]);
  };
  stats::BoxStats out;
  const std::size_t n = sorted.size();
  out.min = sorted.front();
  out.max = sorted.back();
  out.median = median_of(0, n);
  if (n == 1) {
    out.q1 = out.q3 = sorted.front();
  } else {
    out.q1 = median_of(0, n / 2);
    out.q3 = median_of(n - n / 2, n);
  }
  out.mean = mean;
  return out;
}

// Categories are the observed unique values; a sample is recorded as
// v_i exactly when the latent value lies in (v_{i-1}, v_i], with
// Sheppard's corrections for the grid step; adjacent categories are
// pooled until each expects at least 5 samples.
inline stats::GoodnessOfFit ChiSquareBinned(std::span<const double> xs,
                                            double mean, double stddev) {
  constexpr double kMinExpected = 5.0;
  VRD_FATAL_IF(xs.size() < 8, "chi-square test needs at least 8 samples");
  const auto n = static_cast<double>(xs.size());
  std::vector<double> values;
  std::vector<double> counts;
  for (const double x : Sorted(xs)) {
    if (values.empty() || x != values.back()) {
      values.push_back(x);
      counts.push_back(1.0);
    } else {
      counts.back() += 1.0;
    }
  }
  double step = 0.0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    const double gap = values[i] - values[i - 1];
    if (step == 0.0 || gap < step) {
      step = gap;
    }
  }
  const double latent_mean = mean - step / 2.0;
  const double latent_var =
      std::max(stddev * stddev - step * step / 12.0,
               0.25 * stddev * stddev);
  const double latent_stddev = std::sqrt(latent_var);
  std::vector<double> expected(values.size(), 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double hi_cdf =
        (i + 1 == values.size())
            ? 1.0
            : stats::NormalCdf((values[i] - latent_mean) / latent_stddev);
    const double lo_cdf =
        (i == 0) ? 0.0
                 : stats::NormalCdf((values[i - 1] - latent_mean) /
                                    latent_stddev);
    expected[i] = n * std::max(0.0, hi_cdf - lo_cdf);
  }

  std::vector<double> obs_pooled;
  std::vector<double> exp_pooled;
  double obs_acc = 0.0;
  double exp_acc = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    obs_acc += counts[b];
    exp_acc += expected[b];
    if (exp_acc >= kMinExpected) {
      obs_pooled.push_back(obs_acc);
      exp_pooled.push_back(exp_acc);
      obs_acc = 0.0;
      exp_acc = 0.0;
    }
  }
  if (exp_acc > 0.0 || obs_acc > 0.0) {
    if (exp_pooled.empty()) {
      obs_pooled.push_back(obs_acc);
      exp_pooled.push_back(std::max(exp_acc, 1e-9));
    } else {
      obs_pooled.back() += obs_acc;
      exp_pooled.back() += exp_acc;
    }
  }
  stats::GoodnessOfFit out;
  out.fitted_mean = mean;
  out.fitted_stddev = stddev;
  double stat = 0.0;
  for (std::size_t b = 0; b < obs_pooled.size(); ++b) {
    const double d = obs_pooled[b] - exp_pooled[b];
    stat += d * d / exp_pooled[b];
  }
  out.statistic = stat;
  out.bins_used = obs_pooled.size();
  out.dof = (out.bins_used > 3) ? out.bins_used - 3 : 1;
  out.p_value = stats::ChiSquarePValue(out.statistic, out.dof);
  return out;
}

// Fig. 4 convention: as many equal-width bins over [min, max] as there
// are unique values; the maximum lands in the closed last bin.
inline stats::Histogram UniqueValueHistogram(std::span<const double> xs) {
  const std::size_t num_bins = std::max<std::size_t>(CountUnique(xs), 1);
  const double lo = *std::min_element(xs.begin(), xs.end());
  const double hi = *std::max_element(xs.begin(), xs.end());
  stats::Histogram hist;
  hist.bins.resize(num_bins);
  const double width =
      (hi > lo) ? (hi - lo) / static_cast<double>(num_bins) : 1.0;
  for (std::size_t b = 0; b < num_bins; ++b) {
    hist.bins[b].lo = lo + width * static_cast<double>(b);
    hist.bins[b].hi = lo + width * static_cast<double>(b + 1);
  }
  hist.bins.back().hi = std::max(hist.bins.back().hi, hi);
  for (const double x : xs) {
    auto b = static_cast<std::size_t>((x - lo) / width);
    if (b >= num_bins) {
      b = num_bins - 1;
    }
    ++hist.bins[b].count;
    ++hist.total;
  }
  return hist;
}

}  // namespace series_detail

/// core::AnalyzeSeries computed field by field from the definitions.
inline core::SeriesAnalysis AnalyzeSeries(
    std::span<const std::int64_t> series, std::size_t acf_max_lag = 40) {
  core::SeriesAnalysis out;
  out.measurements = series.size();
  std::vector<std::int64_t> valid;
  for (const std::int64_t v : series) {
    if (v >= 0) {
      valid.push_back(v);
    }
  }
  out.valid = valid.size();
  VRD_FATAL_IF(out.valid < 8,
               "series has too few flipping measurements to analyze");

  out.min_rdt = *std::min_element(valid.begin(), valid.end());
  out.max_rdt = *std::max_element(valid.begin(), valid.end());
  out.max_over_min = static_cast<double>(out.max_rdt) /
                     static_cast<double>(out.min_rdt);
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series[i] == out.min_rdt) {
      out.first_min_index = i;
      break;
    }
  }
  out.min_multiplicity = static_cast<std::size_t>(
      std::count(valid.begin(), valid.end(), out.min_rdt));

  const std::vector<double> values = stats::ToDoubles(valid);
  out.unique_values = series_detail::CountUnique(values);
  const series_detail::Moments moments =
      series_detail::ClosedFormMoments(valid);
  out.mean = moments.mean;
  out.stddev = moments.stddev;
  out.cv = (out.mean != 0.0) ? out.stddev / out.mean : 0.0;
  out.box = series_detail::BoxStats(values, out.mean);

  out.run_lengths = MapRunLengths(valid);
  out.immediate_change_fraction =
      out.run_lengths.ImmediateChangeFraction();

  if (out.stddev > 0.0) {
    out.normal_fit =
        series_detail::ChiSquareBinned(values, out.mean, out.stddev);
  } else {
    out.normal_fit.p_value = 1.0;
    out.normal_fit.fitted_mean = out.mean;
  }

  const std::size_t max_lag =
      std::min(acf_max_lag, valid.size() > 1 ? valid.size() - 1 : 0);
  if (max_lag >= 1) {
    out.acf = SerialAutocorrelation(values, max_lag);
    out.acf_significant_fraction =
        stats::FractionSignificantLags(out.acf, valid.size());
  }

  out.histogram = series_detail::UniqueValueHistogram(values);
  out.histogram_modes = stats::CountModes(out.histogram);
  return out;
}

}  // namespace vrddram::oracle

#endif  // VRDDRAM_TESTS_CORE_SERIES_ANALYSIS_ORACLE_H
