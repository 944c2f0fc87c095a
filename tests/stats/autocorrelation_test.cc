#include "stats/autocorrelation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "stats/series_stats_oracle.h"

namespace vrddram::stats {
namespace {

TEST(AutocorrelationTest, LagZeroIsOne) {
  const std::vector<double> xs = {1.0, 3.0, 2.0, 5.0, 4.0};
  const std::vector<double> acf = Autocorrelation(xs, 2);
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(AutocorrelationTest, ConstantSeriesIsFullyCorrelated) {
  const std::vector<double> xs(20, 3.0);
  const std::vector<double> acf = Autocorrelation(xs, 5);
  for (const double r : acf) {
    EXPECT_DOUBLE_EQ(r, 1.0);
  }
}

TEST(AutocorrelationTest, WhiteNoiseStaysInBand) {
  Rng rng(11);
  std::vector<double> xs;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(rng.NextGaussian());
  }
  const std::vector<double> acf = Autocorrelation(xs, 40);
  // ~5% of lags may exceed the 95% band; allow slack.
  EXPECT_LT(FractionSignificantLags(acf, n), 0.15);
}

TEST(AutocorrelationTest, PeriodicSignalDetected) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(std::sin(2.0 * M_PI * i / 10.0));
  }
  const std::vector<double> acf = Autocorrelation(xs, 20);
  // Strong positive correlation at the period.
  EXPECT_GT(acf[10], 0.9);
  EXPECT_LT(acf[5], -0.9);
  EXPECT_GT(FractionSignificantLags(acf, xs.size()), 0.8);
}

TEST(AutocorrelationTest, AlternatingSeries) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  const std::vector<double> acf = Autocorrelation(xs, 2);
  EXPECT_NEAR(acf[1], -1.0, 0.05);
  EXPECT_NEAR(acf[2], 1.0, 0.05);
}

void ExpectSameBitsAsSerial(std::span<const double> xs, std::size_t max_lag,
                            const std::string& label) {
  const std::vector<double> want = oracle::SerialAutocorrelation(xs, max_lag);
  const std::vector<double> got = Autocorrelation(xs, max_lag);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
              std::bit_cast<std::uint64_t>(want[k]))
        << label << ", lag " << k << ": expected " << want[k] << ", got "
        << got[k];
  }
}

// Sweep-grid values with ties, as a measured RDT series has them.
std::vector<double> GridValues(Rng& rng, std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(12000.0 + 60.0 * static_cast<double>(rng.NextBelow(9)));
  }
  return xs;
}

TEST(AutocorrelationTest, EveryLagIsTheSerialSumBitForBit) {
  Rng rng(0xacf);
  // Lengths around and between multiples of any lag block, with
  // max_lag from 1 to n - 1.
  for (std::size_t n = 2; n <= 70; ++n) {
    const std::vector<double> xs = GridValues(rng, n);
    for (std::size_t max_lag = 1; max_lag < n; ++max_lag) {
      ExpectSameBitsAsSerial(xs, max_lag,
                             "n " + std::to_string(n) + ", max_lag " +
                                 std::to_string(max_lag));
    }
  }
  for (const std::size_t n : {999u, 1000u, 1001u, 4097u}) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(rng.NextGaussian());
    }
    for (const std::size_t max_lag : {1u, 7u, 8u, 19u, 20u, 21u, 40u, 63u}) {
      ExpectSameBitsAsSerial(xs, max_lag,
                             "gaussian n " + std::to_string(n) +
                                 ", max_lag " + std::to_string(max_lag));
    }
  }
  const std::vector<double> paper_scale = GridValues(rng, 100000);
  ExpectSameBitsAsSerial(paper_scale, 40, "100,000 grid values");
}

TEST(AutocorrelationTest, ConstantSeriesMatchesTheSerialDefinition) {
  for (const std::size_t n : {2u, 21u, 1000u}) {
    const std::vector<double> xs(n, 4321.0);
    ExpectSameBitsAsSerial(xs, n - 1, "constant n " + std::to_string(n));
  }
}

TEST(AutocorrelationTest, WhiteNoiseBound) {
  EXPECT_NEAR(WhiteNoiseBound95(10000), 0.0196, 1e-4);
  EXPECT_THROW(WhiteNoiseBound95(0), FatalError);
}

TEST(AutocorrelationTest, InvalidInputsThrow) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(Autocorrelation(one, 0), FatalError);
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_THROW(Autocorrelation(xs, 3), FatalError);
}

}  // namespace
}  // namespace vrddram::stats
