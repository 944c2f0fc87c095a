#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/min_rdt.h"
#include "core/rdt_profiler.h"
#include "stats/min_sample_oracle.h"
#include "vrd/chip_catalog.h"

namespace vrddram::core {
namespace {

RowMinRdtResult Analyze(const std::vector<std::int64_t>& series,
                        std::vector<std::size_t> sample_sizes,
                        std::vector<std::uint32_t> margins = {}) {
  MinRdtSettings settings;
  settings.sample_sizes = std::move(sample_sizes);
  settings.margins = std::move(margins);
  return AnalyzeRowSeries(BuildSortedFlips(series), settings);
}

TEST(MinRdtExactTest, DegenerateSeriesAlwaysFindsMin) {
  const std::vector<std::int64_t> series(100, 500);
  const RowMinRdtResult result = Analyze(series, {1});
  EXPECT_DOUBLE_EQ(result.per_n[0].prob_find_min, 1.0);
  EXPECT_DOUBLE_EQ(result.per_n[0].expected_norm_min, 1.0);
}

TEST(MinRdtExactTest, SingleMinimum) {
  // One minimum among 1000: P(find with N=1) = k/L = 1/1000.
  std::vector<std::int64_t> series(1000, 2000);
  series[123] = 1000;
  const RowMinRdtResult result = Analyze(series, {1, 500});
  EXPECT_EQ(result.valid_count, 1000u);
  EXPECT_EQ(result.min_count, 1u);
  EXPECT_NEAR(result.per_n[0].prob_find_min, 0.001, 1e-12);
  // N=500 draws with replacement: 1 - (999/1000)^500.
  EXPECT_NEAR(result.per_n[1].prob_find_min,
              1.0 - std::pow(0.999, 500.0), 1e-12);
}

TEST(MinRdtExactTest, ExpectedNormalizedMinTwoValues) {
  // Half 1000s, half 2000s. With N=1: E[min]=1500 -> normalized 1.5.
  std::vector<std::int64_t> series;
  for (int i = 0; i < 50; ++i) {
    series.push_back(1000);
    series.push_back(2000);
  }
  const RowMinRdtResult result = Analyze(series, {1, 2});
  EXPECT_NEAR(result.per_n[0].expected_norm_min, 1.5, 1e-12);
  // With N=2: P(min=2000) = 0.25 -> E = 0.75*1000 + 0.25*2000 = 1250.
  EXPECT_NEAR(result.per_n[1].expected_norm_min, 1.25, 1e-12);
}

TEST(MinRdtExactTest, ProbWithinMargin) {
  const std::vector<std::int64_t> series = {1000, 1050, 1200, 2000};
  const RowMinRdtResult result = Analyze(series, {1}, {10, 0});
  // 10% margin -> values <= 1100 qualify: {1000, 1050} = 2 of 4.
  EXPECT_NEAR(result.per_n[0].prob_within_margin[0], 0.5, 1e-12);
  // 0% margin -> only the minimum qualifies.
  EXPECT_NEAR(result.per_n[0].prob_within_margin[1], 0.25, 1e-12);
}

TEST(MinRdtExactTest, MarginBoundaryIsInclusive) {
  // 1100 is exactly 10% above 1000 and must count as within 10%.
  const std::vector<std::int64_t> series = {1000, 1100, 1101, 5000};
  const RowMinRdtResult result = Analyze(series, {1}, {10});
  EXPECT_NEAR(result.per_n[0].prob_within_margin[0], 0.5, 1e-12);
}

TEST(MinRdtExactTest, SingleDrawClassesUseIntegerCounts) {
  // A unique minimum among 1000 measurements sits exactly on Fig. 8's
  // 0.1% boundary. In floating point 1 - 999/1000 is
  // 0.0010000000000000009, so a naive `prob <= 0.001` misses it.
  std::vector<std::int64_t> series(1000, 3000);
  series[500] = 1500;
  const RowMinRdtResult unique_min = Analyze(series, {1});
  EXPECT_TRUE(SingleDrawFindMinAtMost(unique_min, 1));
  EXPECT_FALSE(unique_min.per_n[0].prob_find_min <= 0.001);
  EXPECT_FALSE(SingleDrawFindMinAtLeast(unique_min, 999));

  // Two minima are above the 0.1% class.
  series[501] = 1500;
  EXPECT_FALSE(SingleDrawFindMinAtMost(Analyze(series, {1}), 1));

  // 999 of 1000 at the minimum sits exactly on the 99.9% boundary.
  std::vector<std::int64_t> mostly_min(1000, 1500);
  mostly_min[7] = 3000;
  const RowMinRdtResult high = Analyze(mostly_min, {1});
  EXPECT_TRUE(SingleDrawFindMinAtLeast(high, 999));
  EXPECT_FALSE(SingleDrawFindMinAtMost(high, 1));

  // A missing measurement shrinks L: 1 of 999 is above 0.1%.
  series[501] = 3000;
  series[0] = -1;
  EXPECT_FALSE(SingleDrawFindMinAtMost(Analyze(series, {1}), 1));
}

TEST(MinRdtExactTest, ProbabilitiesIncreaseWithN) {
  std::vector<std::int64_t> series;
  for (int i = 0; i < 1000; ++i) {
    series.push_back(4000 + (i * 37) % 1000);
  }
  const RowMinRdtResult result = Analyze(series, {1, 5, 50, 500});
  for (std::size_t i = 1; i < result.per_n.size(); ++i) {
    EXPECT_GE(result.per_n[i].prob_find_min,
              result.per_n[i - 1].prob_find_min);
  }
}

TEST(MinRdtExactTest, InvalidInputsThrow) {
  const std::vector<std::int64_t> empty;
  EXPECT_THROW(Analyze(empty, {1}), FatalError);
  const std::vector<std::int64_t> series = {100};
  EXPECT_THROW(Analyze(series, {0}), FatalError);
  const std::vector<std::int64_t> nonpositive = {0, 5};
  EXPECT_THROW(Analyze(nonpositive, {1}), FatalError);
}

// Property: on series measured from catalog chips, the closed form
// lies within 5 sigma of the paper's Monte Carlo estimator at every
// default N and margin.
constexpr std::size_t kOracleIterations = 20000;

double FiveSigmaBinomial(double p) {
  return 5.0 * std::sqrt(p * (1.0 - p) /
                         static_cast<double>(kOracleIterations)) +
         1e-12;
}

// Exact standard deviation of min(draw)/min(series), summed over the
// distinct values from P(min >= v) = (#{x >= v}/L)^N.
double NormMinStddev(std::vector<std::int64_t> valid, std::size_t n) {
  std::sort(valid.begin(), valid.end());
  const auto total = static_cast<double>(valid.size());
  const auto draws = static_cast<double>(n);
  const auto mn = static_cast<double>(valid.front());
  double m1 = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i < valid.size();) {
    const auto next = static_cast<std::size_t>(
        std::upper_bound(valid.begin(), valid.end(), valid[i]) -
        valid.begin());
    const double at_least =
        std::pow(static_cast<double>(valid.size() - i) / total, draws);
    const double above =
        std::pow(static_cast<double>(valid.size() - next) / total, draws);
    const double x = static_cast<double>(valid[i]) / mn;
    const double p = at_least - above;
    const double xp = x * p;
    m1 += xp;
    const double xxp = x * xp;
    m2 += xxp;
    i = next;
  }
  const double m1_sq = m1 * m1;
  return std::sqrt(std::max(0.0, m2 - m1_sq));
}

std::vector<std::int64_t> MeasuredSeries(const std::string& chip) {
  auto device = vrd::BuildDevice(chip, 2025);
  device->SetOnDieEccEnabled(false);  // §3.1: HBM2 on-die ECC off
  ProfilerConfig pc;
  RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(1, 4000);
  EXPECT_TRUE(victim.has_value()) << chip;
  if (!victim.has_value()) {
    return {};
  }
  return profiler.MeasureSeries(victim->row, victim->rdt_guess, 1000);
}

class OracleAgreementTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(OracleAgreementTest, ExactWithinFiveSigmaOfMonteCarlo) {
  const std::vector<std::int64_t> series = MeasuredSeries(GetParam());
  ASSERT_FALSE(series.empty());
  std::vector<std::int64_t> valid;
  for (const std::int64_t v : series) {
    if (v >= 0) {
      valid.push_back(v);
    }
  }
  const MinRdtSettings settings;
  const RowMinRdtResult exact = AnalyzeRowSeries(BuildSortedFlips(series), settings);
  ASSERT_EQ(exact.valid_count, valid.size());
  EXPECT_EQ(exact.min_count,
            static_cast<std::size_t>(std::count(
                valid.begin(), valid.end(),
                *std::min_element(valid.begin(), valid.end()))));

  Rng rng(HashLabel(2025, GetParam()));
  for (std::size_t i = 0; i < settings.sample_sizes.size(); ++i) {
    const std::size_t n = settings.sample_sizes[i];
    const MinSampleResult& e = exact.per_n[i];
    const oracle::MinSampleEstimate mc = oracle::SampleMinStatistics(
        series, n, kOracleIterations, rng, settings.margins);
    EXPECT_NEAR(mc.prob_find_min, e.prob_find_min,
                FiveSigmaBinomial(e.prob_find_min))
        << "N=" << n;
    const double sigma_mean =
        NormMinStddev(valid, n) /
        std::sqrt(static_cast<double>(kOracleIterations));
    EXPECT_NEAR(mc.expected_norm_min, e.expected_norm_min,
                5.0 * sigma_mean + 1e-12)
        << "N=" << n;
    for (std::size_t m = 0; m < settings.margins.size(); ++m) {
      EXPECT_NEAR(mc.prob_within_margin[m], e.prob_within_margin[m],
                  FiveSigmaBinomial(e.prob_within_margin[m]))
          << "N=" << n << " margin=" << settings.margins[m] << "%";
    }
  }
}

// DDR4 from each manufacturer plus an HBM2 chip.
INSTANTIATE_TEST_SUITE_P(CatalogChips, OracleAgreementTest,
                         ::testing::Values("H1", "M1", "S2", "Chip0"));

}  // namespace
}  // namespace vrddram::core
