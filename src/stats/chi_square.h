/**
 * @file
 * Pearson chi-square goodness-of-fit test against a normal distribution
 * fitted to the sample mean and standard deviation, as used in §4.1 to
 * show that an RDT measurement "likely samples a normally distributed
 * random variable" (minimum p-value 0.18 across tested chips).
 */
#ifndef VRDDRAM_STATS_CHI_SQUARE_H
#define VRDDRAM_STATS_CHI_SQUARE_H

#include <cstddef>
#include <span>

namespace vrddram::stats {

/// Standard normal CDF.
double NormalCdf(double z);

/// Regularized lower incomplete gamma P(a, x).
double RegularizedGammaP(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// Upper-tail p-value of a chi-square statistic with `dof` degrees of
/// freedom.
double ChiSquarePValue(double statistic, std::size_t dof);

/// Result of the goodness-of-fit test.
struct GoodnessOfFit {
  double statistic = 0.0;     ///< Pearson chi-square statistic.
  std::size_t dof = 0;        ///< Degrees of freedom after pooling.
  double p_value = 0.0;       ///< Upper-tail p-value.
  std::size_t bins_used = 0;  ///< Bins remaining after pooling.
  double fitted_mean = 0.0;
  double fitted_stddev = 0.0;

  /// Null hypothesis "data is normal" survives at significance alpha.
  bool NormalAt(double alpha = 0.05) const { return p_value > alpha; }
};

/**
 * The paper's §4.1 goodness-of-fit test for inherently quantized RDT
 * data, against a normal fitted to the sample's `mean` and `stddev`.
 *
 * The sample arrives as runs: `values` are its distinct values in
 * ascending order and `counts[i]` how often values[i] occurs. Each
 * distinct value is a category of the Fig. 4 unique-value convention;
 * expected counts come from the fitted normal's CDF over the category
 * edges, with Sheppard's corrections for the grid step. Adjacent
 * categories are pooled until every expected count is at least
 * `min_expected`; degrees of freedom are categories - 1 - 2 (two
 * estimated parameters). `mean` and `stddev` are the caller's, summed
 * over the sample in its own order. Equal-probability binning would
 * reject any discrete distribution regardless of its shape, which is
 * why the categories are the observed values.
 */
GoodnessOfFit ChiSquareNormalTestBinned(std::span<const double> values,
                                        std::span<const std::size_t> counts,
                                        double mean, double stddev,
                                        double min_expected = 5.0);

}  // namespace vrddram::stats

#endif  // VRDDRAM_STATS_CHI_SQUARE_H
