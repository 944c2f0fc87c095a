/**
 * @file
 * Error-probability model behind Table 3: probabilities of
 * uncorrectable / undetectable / detectable-but-uncorrectable errors
 * for SEC, SECDED, and Chipkill-like SSC codes under an i.i.d. bit
 * error rate (the paper uses the worst empirically observed rate,
 * 7.6e-5, from 5 bitflips in a 64 Kibit row at a 10% guardband), both
 * analytic (AnalyzeCode) and exact through the real codecs
 * (EnumerateCode).
 */
#ifndef VRDDRAM_ECC_ANALYSIS_H
#define VRDDRAM_ECC_ANALYSIS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vrddram::ecc {

/// Binomial pmf: P(X == k) for X ~ Binomial(n, p).
double BinomialPmf(std::size_t n, std::size_t k, double p);

/// Binomial upper tail: P(X >= k).
double BinomialTail(std::size_t n, std::size_t k, double p);

enum class CodeKind : std::uint8_t {
  kSec,       ///< single error correction, 72-bit codeword
  kSecded,    ///< SEC + double error detection, 72-bit codeword
  kChipkill,  ///< single symbol correction, 18 x 8-bit symbols
};

std::string ToString(CodeKind kind);

/// One row of Table 3.
struct ErrorProbabilities {
  double uncorrectable = 0.0;
  double undetectable = 0.0;
  /// Negative when the category does not exist for the code ("N/A").
  double detectable_uncorrectable = -1.0;
};

/**
 * Analytic per-codeword probabilities at bit error rate `ber`,
 * matching the paper's model: SEC treats every >= 2-bit error as
 * silent corruption; SECDED detects 2-bit errors and is silently
 * beaten by >= 3; SSC fails silently once >= 2 of its 18 symbols are
 * hit (symbol error rate 1 - (1-ber)^8).
 */
ErrorProbabilities AnalyzeCode(CodeKind kind, double ber);

/// Decoder outcomes over every error pattern of one weight.
struct PatternCounts {
  std::uint64_t patterns = 0;       ///< C(n, k)
  std::uint64_t uncorrectable = 0;  ///< flagged, or decoded to wrong data
  std::uint64_t undetectable = 0;   ///< decoded to wrong data, unflagged
};

/// EnumerateCode's result for one code.
struct EnumeratedCode {
  std::size_t bits = 0;  ///< codeword length n
  /// by_errors[k]: outcomes of the C(n, k) patterns of k error bits,
  /// for k = 0 .. the largest weight enumerated.
  std::vector<PatternCounts> by_errors;
  /// sum_k BinomialPmf(n, k, ber) * count_k / C(n, k) over by_errors.
  /// detectable_uncorrectable is negative for SEC, which cannot flag.
  ErrorProbabilities probabilities;
  /// BinomialTail(n, kmax + 1, ber): the mass of the patterns not
  /// enumerated, which bounds how far each probability can be low.
  double dropped_tail = 0.0;
};

/**
 * Exact per-codeword probabilities at bit error rate `ber`, by
 * decoding every error pattern of up to 4 bits of the 72-bit word
 * (Hamming72::DecodeSecOnly for SEC, Decode for SECDED) or up to 3
 * bits of the 144-bit word (ChipkillSsc::Decode). The codes are
 * linear, so a pattern's outcome does not depend on the data; the
 * all-zero codeword carries the errors.
 */
EnumeratedCode EnumerateCode(CodeKind kind, double ber);

/// The worst bit error rate observed in the paper's §6.4 experiment:
/// 5 unique bitflips in a 64 Kibit (65,536-bit) row.
inline constexpr double kPaperWorstBer = 5.0 / 65536.0;  // ~7.6e-5

}  // namespace vrddram::ecc

#endif  // VRDDRAM_ECC_ANALYSIS_H
