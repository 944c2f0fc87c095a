#include "stats/chi_square.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "stats/descriptive.h"

namespace vrddram::stats {
namespace {

TEST(ChiSquareTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.0), 0.841345, 1e-5);
  EXPECT_NEAR(NormalCdf(-1.96), 0.024998, 1e-5);
  EXPECT_NEAR(NormalCdf(3.0), 0.998650, 1e-5);
}

TEST(ChiSquareTest, RegularizedGammaComplement) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-10);
    }
  }
}

TEST(ChiSquareTest, GammaPKnownValues) {
  // P(1, x) = 1 - exp(-x).
  EXPECT_NEAR(RegularizedGammaP(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-10);
  // P(a, 0) = 0, Q(a, 0) = 1.
  EXPECT_DOUBLE_EQ(RegularizedGammaP(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(3.0, 0.0), 1.0);
}

TEST(ChiSquareTest, PValueKnownQuantiles) {
  // Chi-square with 1 dof: P(X > 3.841) = 0.05.
  EXPECT_NEAR(ChiSquarePValue(3.841, 1), 0.05, 0.001);
  // 10 dof: P(X > 18.307) = 0.05.
  EXPECT_NEAR(ChiSquarePValue(18.307, 10), 0.05, 0.001);
  EXPECT_DOUBLE_EQ(ChiSquarePValue(0.0, 5), 1.0);
}

// The sample as the test takes it: distinct values ascending, counts,
// and the mean and stddev summed in the sample's own order.
GoodnessOfFit Binned(const std::vector<double>& xs) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> values;
  std::vector<std::size_t> counts;
  for (const double x : sorted) {
    if (values.empty() || x != values.back()) {
      values.push_back(x);
      counts.push_back(0);
    }
    ++counts.back();
  }
  const double mean = Mean(xs);
  double ss = 0.0;
  for (const double x : xs) {
    const double d = x - mean;
    ss += d * d;
  }
  return ChiSquareNormalTestBinned(
      values, counts, mean,
      std::sqrt(ss / static_cast<double>(xs.size() - 1)));
}

TEST(ChiSquareTest, ConstantSeriesTriviallyPasses) {
  const GoodnessOfFit fit = Binned(std::vector<double>(100, 5.0));
  EXPECT_DOUBLE_EQ(fit.p_value, 1.0);
  EXPECT_DOUBLE_EQ(fit.fitted_mean, 5.0);
}

// The binned test must accept grid-quantized normal data (the RDT
// measurement situation).
TEST(ChiSquareTest, QuantizedNormalPassesBinnedVariant) {
  Rng rng(24);
  std::vector<double> xs;
  const double step = 50.0;
  for (int i = 0; i < 20000; ++i) {
    const double latent = rng.NextGaussian(10000.0, 150.0);
    xs.push_back(std::ceil(latent / step) * step);
  }
  const GoodnessOfFit binned = Binned(xs);
  EXPECT_TRUE(binned.NormalAt(0.01)) << "p=" << binned.p_value;
}

TEST(ChiSquareTest, QuantizedUniformFailsBinnedVariant) {
  Rng rng(25);
  std::vector<double> xs;
  const double step = 50.0;
  for (int i = 0; i < 20000; ++i) {
    const double latent = 10000.0 + 600.0 * rng.NextDouble();
    xs.push_back(std::ceil(latent / step) * step);
  }
  const GoodnessOfFit binned = Binned(xs);
  EXPECT_FALSE(binned.NormalAt(0.05));
}

TEST(ChiSquareTest, TooFewSamplesThrow) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(Binned(xs), FatalError);
}

TEST(ChiSquareTest, MalformedRunsThrow) {
  const std::vector<double> values = {1.0, 2.0};
  const std::vector<std::size_t> one_count = {10};
  EXPECT_THROW(ChiSquareNormalTestBinned(values, one_count, 1.5, 0.5),
               FatalError);
  const std::vector<double> descending = {2.0, 1.0};
  const std::vector<std::size_t> counts = {5, 5};
  EXPECT_THROW(ChiSquareNormalTestBinned(descending, counts, 1.5, 0.5),
               FatalError);
}

}  // namespace
}  // namespace vrddram::stats
