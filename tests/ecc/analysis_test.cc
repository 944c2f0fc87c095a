#include "ecc/analysis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace vrddram::ecc {
namespace {

TEST(BinomialTest, PmfKnownValues) {
  EXPECT_NEAR(BinomialPmf(10, 0, 0.5), 1.0 / 1024.0, 1e-12);
  EXPECT_NEAR(BinomialPmf(10, 5, 0.5), 252.0 / 1024.0, 1e-12);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 6, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 2, 0.0), 0.0);
}

TEST(BinomialTest, RejectsProbabilitiesOutsideTheUnitInterval) {
  for (const double p : {-0.1, 1.5, std::nan("")}) {
    EXPECT_THROW(BinomialPmf(72, 1, p), FatalError) << p;
    EXPECT_THROW(EnumerateCode(CodeKind::kSecded, p), FatalError) << p;
  }
}

TEST(BinomialTest, TailComplementsPmf) {
  double total = 0.0;
  for (std::size_t k = 0; k <= 20; ++k) {
    total += BinomialPmf(20, k, 0.3);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(BinomialTail(20, 0, 0.3), 1.0, 1e-12);
  EXPECT_NEAR(BinomialTail(20, 21, 0.3), 0.0, 1e-12);
  EXPECT_NEAR(BinomialTail(20, 3, 0.3),
              1.0 - BinomialPmf(20, 0, 0.3) - BinomialPmf(20, 1, 0.3) -
                  BinomialPmf(20, 2, 0.3),
              1e-12);
}

// Table 3 of the paper, at the empirically observed worst bit error
// rate of 7.6e-5 (5 bitflips in a 64 Kibit row).
TEST(AnalysisTest, Table3Sec) {
  const ErrorProbabilities p =
      AnalyzeCode(CodeKind::kSec, kPaperWorstBer);
  EXPECT_NEAR(p.uncorrectable, 1.48e-5, 0.05e-5);
  EXPECT_NEAR(p.undetectable, 1.48e-5, 0.05e-5);
  EXPECT_LT(p.detectable_uncorrectable, 0.0);  // N/A
}

TEST(AnalysisTest, Table3Secded) {
  const ErrorProbabilities p =
      AnalyzeCode(CodeKind::kSecded, kPaperWorstBer);
  EXPECT_NEAR(p.uncorrectable, 1.48e-5, 0.05e-5);
  EXPECT_NEAR(p.undetectable, 2.64e-8, 0.15e-8);
  EXPECT_NEAR(p.detectable_uncorrectable, 1.48e-5, 0.05e-5);
}

TEST(AnalysisTest, Table3Chipkill) {
  const ErrorProbabilities p =
      AnalyzeCode(CodeKind::kChipkill, kPaperWorstBer);
  EXPECT_NEAR(p.uncorrectable, 5.66e-5, 0.1e-5);
  EXPECT_NEAR(p.undetectable, 5.66e-5, 0.1e-5);
}

TEST(AnalysisTest, ProbabilitiesGrowWithBer) {
  for (const CodeKind kind :
       {CodeKind::kSec, CodeKind::kSecded, CodeKind::kChipkill}) {
    const double low = AnalyzeCode(kind, 1e-6).uncorrectable;
    const double high = AnalyzeCode(kind, 1e-4).uncorrectable;
    EXPECT_GT(high, low);
  }
}

TEST(BinomialTest, TailKeepsDigitsFarBelowOne) {
  // Summed from the top term down, not as 1 - head: the k >= 5 tail of
  // a 72-bit word at the paper's BER is 3.6013562e-14 (exact rational
  // arithmetic), far below the rounding of 1.0.
  EXPECT_NEAR(BinomialTail(72, 5, kPaperWorstBer), 3.6013562086513535e-14,
              1e-22);
  EXPECT_NEAR(BinomialTail(144, 4, kPaperWorstBer), 5.770913575946926e-10,
              1e-18);
  EXPECT_GT(BinomialTail(72, 5, 1.0 / 65536.0), 0.0);
}

/// Expect by_errors[k] to hold `patterns` patterns of which
/// `uncorrectable` fail and `undetectable` fail unflagged.
void ExpectCounts(const EnumeratedCode& code, std::size_t k,
                  std::uint64_t patterns, std::uint64_t uncorrectable,
                  std::uint64_t undetectable) {
  ASSERT_LT(k, code.by_errors.size());
  const PatternCounts& counts = code.by_errors[k];
  EXPECT_EQ(counts.patterns, patterns) << "k=" << k;
  EXPECT_EQ(counts.uncorrectable, uncorrectable) << "k=" << k;
  EXPECT_EQ(counts.undetectable, undetectable) << "k=" << k;
}

TEST(EnumerateCodeTest, SecdedCountsEveryPatternUpToFourBits) {
  const EnumeratedCode code =
      EnumerateCode(CodeKind::kSecded, kPaperWorstBer);
  EXPECT_EQ(code.bits, 72u);
  ASSERT_EQ(code.by_errors.size(), 5u);
  ExpectCounts(code, 0, 1, 0, 0);
  ExpectCounts(code, 1, 72, 0, 0);            // every single corrected
  ExpectCounts(code, 2, 2556, 2556, 0);       // every double detected
  ExpectCounts(code, 3, 59640, 59640, 34164);
  ExpectCounts(code, 4, 1028790, 1028790, 8541);
}

TEST(EnumerateCodeTest, SecPassesOnlyCheckBitPairs) {
  const EnumeratedCode code = EnumerateCode(CodeKind::kSec, kPaperWorstBer);
  ASSERT_EQ(code.by_errors.size(), 5u);
  ExpectCounts(code, 1, 72, 0, 0);
  // SEC cannot flag, so every failure is silent. A pair of check bits
  // leaves an unmatched syndrome and the data intact: the C(8,2) = 28
  // such pairs pass.
  ExpectCounts(code, 2, 2556, 2556 - 28, 2556 - 28);
  ExpectCounts(code, 3, 59640, 59640, 59640);
  ExpectCounts(code, 4, 1028790, 1028720, 1028720);
  EXPECT_LT(code.probabilities.detectable_uncorrectable, 0.0);  // N/A
}

TEST(EnumerateCodeTest, ChipkillCorrectsOnlySameSymbolPatterns) {
  const EnumeratedCode code =
      EnumerateCode(CodeKind::kChipkill, kPaperWorstBer);
  EXPECT_EQ(code.bits, 144u);
  ASSERT_EQ(code.by_errors.size(), 4u);
  ExpectCounts(code, 1, 144, 0, 0);
  // 18 * C(8,2) = 504 pairs and 18 * C(8,3) = 1,008 triples stay in one
  // symbol and are corrected; every other pattern fails.
  EXPECT_EQ(code.by_errors[2].patterns, 10296u);
  EXPECT_EQ(code.by_errors[2].uncorrectable, 10296u - 504u);
  EXPECT_EQ(code.by_errors[3].patterns, 487344u);
  EXPECT_EQ(code.by_errors[3].uncorrectable, 487344u - 1008u);
}

TEST(EnumerateCodeTest, ExactMatchesTheAnalyticModelWithinTheDroppedTail) {
  // The analytic model calls every >= 2-bit (SECDED) or >= 2-symbol
  // (SSC) error uncorrectable, which the counts above confirm pattern
  // by pattern, so only the patterns left out can separate the two.
  // At the paper's BER the SECDED gap equals its tail to the last few
  // ulps of the ~1e-5 sums, hence a rounding slack.
  const double slack = 1e-18;
  for (const double ber : {kPaperWorstBer, 2e-3}) {
    for (const CodeKind kind : {CodeKind::kSecded, CodeKind::kChipkill}) {
      const EnumeratedCode exact = EnumerateCode(kind, ber);
      const double analytic = AnalyzeCode(kind, ber).uncorrectable;
      EXPECT_LE(exact.probabilities.uncorrectable, analytic + slack)
          << ToString(kind) << " at " << ber;
      EXPECT_LE(analytic - exact.probabilities.uncorrectable,
                exact.dropped_tail + slack)
          << ToString(kind) << " at " << ber;
      EXPECT_GT(exact.dropped_tail, 0.0);
    }
  }
  // The paper-BER values Table 3's cross-check prints.
  EXPECT_NEAR(EnumerateCode(CodeKind::kSecded, kPaperWorstBer)
                  .probabilities.uncorrectable,
              1.483e-5, 0.001e-5);
  EXPECT_NEAR(EnumerateCode(CodeKind::kChipkill, kPaperWorstBer)
                  .probabilities.undetectable,
              3.610e-6, 0.001e-6);
}

TEST(AnalysisTest, Names) {
  EXPECT_EQ(ToString(CodeKind::kSec), "SEC");
  EXPECT_EQ(ToString(CodeKind::kSecded), "SECDED");
  EXPECT_EQ(ToString(CodeKind::kChipkill), "Chipkill-like (SSC)");
}

}  // namespace
}  // namespace vrddram::ecc
