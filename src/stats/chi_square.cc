#include "stats/chi_square.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "common/error.h"

namespace vrddram::stats {

double NormalCdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

namespace {

// ln Gamma(a). std::lgamma also writes the global `signgam`, a data
// race once AnalyzeSeries runs on several shard-executor workers;
// glibc's lgamma_r is the same computation with the sign returned
// through a local instead.
double LogGamma(double a) {
#if defined(__GLIBC__)
  int sign = 0;
  return ::lgamma_r(a, &sign);
#else
  return std::lgamma(a);
#endif
}

// Series expansion of P(a, x), valid and fast for x < a + 1.
double GammaPSeries(double a, double x) {
  const double gln = LogGamma(a);
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * 1e-14) {
      break;
    }
  }
  return sum * std::exp(-x + a * std::log(x) - gln);
}

// Continued-fraction expansion of Q(a, x), valid for x >= a + 1
// (modified Lentz method).
double GammaQContinuedFraction(double a, double x) {
  const double gln = LogGamma(a);
  const double tiny = std::numeric_limits<double>::min() / 1e-30;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) {
      d = tiny;
    }
    c = b + an / c;
    if (std::abs(c) < tiny) {
      c = tiny;
    }
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-14) {
      break;
    }
  }
  return std::exp(-x + a * std::log(x) - gln) * h;
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  VRD_FATAL_IF(a <= 0.0 || x < 0.0, "invalid incomplete-gamma arguments");
  if (x == 0.0) {
    return 0.0;
  }
  if (x < a + 1.0) {
    return GammaPSeries(a, x);
  }
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  VRD_FATAL_IF(a <= 0.0 || x < 0.0, "invalid incomplete-gamma arguments");
  if (x == 0.0) {
    return 1.0;
  }
  if (x < a + 1.0) {
    return 1.0 - GammaPSeries(a, x);
  }
  return GammaQContinuedFraction(a, x);
}

double ChiSquarePValue(double statistic, std::size_t dof) {
  VRD_FATAL_IF(dof == 0, "chi-square with zero degrees of freedom");
  if (statistic <= 0.0) {
    return 1.0;
  }
  return RegularizedGammaQ(static_cast<double>(dof) / 2.0, statistic / 2.0);
}

GoodnessOfFit ChiSquareNormalTestBinned(std::span<const double> values,
                                        std::span<const std::size_t> counts,
                                        double mean, double stddev,
                                        double min_expected) {
  VRD_FATAL_IF(values.size() != counts.size(),
               "chi-square test needs one count per value");
  VRD_FATAL_IF(std::adjacent_find(values.begin(), values.end(),
                                  std::greater_equal<>()) != values.end(),
               "chi-square test needs distinct values in ascending order");
  std::size_t samples = 0;
  for (const std::size_t c : counts) {
    samples += c;
  }
  VRD_FATAL_IF(samples < 8, "chi-square test needs at least 8 samples");
  const auto n = static_cast<double>(samples);
  GoodnessOfFit out;
  out.fitted_mean = mean;
  out.fitted_stddev = stddev;
  if (stddev == 0.0) {
    out.p_value = 1.0;
    out.dof = 1;
    out.bins_used = 1;
    return out;
  }

  // Categories are the observed unique values. The measurement process
  // quantizes a latent value up to the next grid point, so a sample is
  // recorded as v_i exactly when the latent value lies in
  // (v_{i-1}, v_i]; edge categories absorb the open tails. The
  // quantization step is the smallest gap between unique values.
  double step = 0.0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    const double gap = values[i] - values[i - 1];
    if (step == 0.0 || gap < step) {
      step = gap;
    }
  }

  // Sheppard's corrections: ceiling-to-grid shifts the observed mean
  // up by step/2 and inflates the variance by step^2/12 relative to
  // the latent continuous distribution the test is about.
  const double latent_mean = mean - step / 2.0;
  const double latent_var =
      std::max(stddev * stddev - step * step / 12.0,
               0.25 * stddev * stddev);
  const double latent_stddev = std::sqrt(latent_var);

  // Pool observed/expected pairs until each expected count reaches
  // min_expected; a short tail joins the last pooled category.
  std::vector<double> obs_pooled;
  std::vector<double> exp_pooled;
  double obs_acc = 0.0;
  double exp_acc = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double hi_cdf =
        (i + 1 == values.size())
            ? 1.0
            : NormalCdf((values[i] - latent_mean) / latent_stddev);
    const double lo_cdf =
        (i == 0) ? 0.0
                 : NormalCdf((values[i - 1] - latent_mean) /
                             latent_stddev);
    obs_acc += static_cast<double>(counts[i]);
    exp_acc += n * std::max(0.0, hi_cdf - lo_cdf);
    if (exp_acc >= min_expected) {
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

  double stat = 0.0;
  for (std::size_t b = 0; b < obs_pooled.size(); ++b) {
    const double d = obs_pooled[b] - exp_pooled[b];
    stat += d * d / exp_pooled[b];
  }
  out.statistic = stat;
  out.bins_used = obs_pooled.size();
  const std::size_t reduction = 3;  // mean + stddev estimated, -1
  out.dof = (out.bins_used > reduction) ? out.bins_used - reduction : 1;
  out.p_value = ChiSquarePValue(out.statistic, out.dof);
  return out;
}

}  // namespace vrddram::stats
