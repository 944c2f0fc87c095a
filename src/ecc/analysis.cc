#include "ecc/analysis.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "common/error.h"
#include "ecc/chipkill.h"
#include "ecc/hamming.h"

namespace vrddram::ecc {
namespace {

/// Heaviest error pattern EnumerateCode decodes (72-bit codes).
constexpr std::size_t kMaxErrors = 4;

/// Call `visit(positions)` for every k-subset of {0, ..., n - 1}, in
/// lexicographic order (once, with no positions, for k = 0).
template <typename Visit>
void ForEachPattern(std::size_t n, std::size_t k, Visit&& visit) {
  VRD_ASSERT(k <= kMaxErrors && k <= n);
  std::array<std::size_t, kMaxErrors> positions{};
  for (std::size_t i = 0; i < k; ++i) {
    positions[i] = i;
  }
  while (true) {
    visit(std::span<const std::size_t>(positions.data(), k));
    std::size_t i = k;
    while (i > 0 && positions[i - 1] == n - k + i - 1) {
      --i;
    }
    if (i == 0) {
      return;
    }
    ++positions[i - 1];
    for (std::size_t j = i; j < k; ++j) {
      positions[j] = positions[j - 1] + 1;
    }
  }
}

/// What a decoder made of one error pattern on the all-zero codeword.
struct Outcome {
  bool wrong_data = false;
  bool flagged = false;
};

/// Decode every pattern of up to `max_errors` of `bits` bits and weigh
/// each weight's counts by its binomial probability.
template <typename Decode>
EnumeratedCode Enumerate(std::size_t bits, std::size_t max_errors,
                         bool can_flag, double ber, Decode&& decode) {
  EnumeratedCode code;
  code.bits = bits;
  code.by_errors.resize(max_errors + 1);
  ErrorProbabilities& p = code.probabilities;
  p.detectable_uncorrectable = can_flag ? 0.0 : -1.0;
  for (std::size_t k = 0; k <= max_errors; ++k) {
    PatternCounts& counts = code.by_errors[k];
    ForEachPattern(bits, k, [&](std::span<const std::size_t> positions) {
      const Outcome outcome = decode(positions);
      ++counts.patterns;
      counts.uncorrectable += outcome.flagged || outcome.wrong_data;
      counts.undetectable += !outcome.flagged && outcome.wrong_data;
    });
    const double pmf = BinomialPmf(bits, k, ber);
    const auto patterns = static_cast<double>(counts.patterns);
    p.uncorrectable +=
        pmf * (static_cast<double>(counts.uncorrectable) / patterns);
    p.undetectable +=
        pmf * (static_cast<double>(counts.undetectable) / patterns);
    if (can_flag) {
      p.detectable_uncorrectable +=
          pmf * (static_cast<double>(counts.uncorrectable -
                                     counts.undetectable) /
                 patterns);
    }
  }
  code.dropped_tail = BinomialTail(bits, max_errors + 1, ber);
  return code;
}

}  // namespace

double BinomialPmf(std::size_t n, std::size_t k, double p) {
  // Written as a range test that NaN fails.
  VRD_FATAL_IF(!(p >= 0.0 && p <= 1.0), "probability out of range");
  if (k > n) {
    return 0.0;
  }
  // Work in log space for numerical robustness.
  const double log_choose = std::lgamma(static_cast<double>(n) + 1.0) -
                            std::lgamma(static_cast<double>(k) + 1.0) -
                            std::lgamma(static_cast<double>(n - k) + 1.0);
  double log_p = 0.0;
  if (k > 0) {
    if (p == 0.0) {
      return 0.0;
    }
    log_p += static_cast<double>(k) * std::log(p);
  }
  if (n - k > 0) {
    if (p == 1.0) {
      return 0.0;
    }
    log_p += static_cast<double>(n - k) * std::log1p(-p);
  }
  return std::exp(log_choose + log_p);
}

double BinomialTail(std::size_t n, std::size_t k, double p) {
  if (k == 0) {
    return 1.0;
  }
  // P(X >= k) summed from the top term down: the smallest terms come
  // first and nothing is subtracted from 1, so a tail far below the
  // rounding of 1.0 (the k >= 5 tail of a 72-bit word is ~1e-14 at
  // ber 7.6e-5) keeps its digits.
  double tail = 0.0;
  for (std::size_t j = n + 1; j-- > k;) {
    tail += BinomialPmf(n, j, p);
  }
  return std::min(1.0, tail);
}

std::string ToString(CodeKind kind) {
  switch (kind) {
    case CodeKind::kSec: return "SEC";
    case CodeKind::kSecded: return "SECDED";
    case CodeKind::kChipkill: return "Chipkill-like (SSC)";
  }
  throw PanicError("unknown code kind");
}

ErrorProbabilities AnalyzeCode(CodeKind kind, double ber) {
  ErrorProbabilities out;
  switch (kind) {
    case CodeKind::kSec: {
      const double ge2 = BinomialTail(72, 2, ber);
      out.uncorrectable = ge2;
      out.undetectable = ge2;  // no detection capability
      out.detectable_uncorrectable = -1.0;
      break;
    }
    case CodeKind::kSecded: {
      out.uncorrectable = BinomialTail(72, 2, ber);
      out.undetectable = BinomialTail(72, 3, ber);
      out.detectable_uncorrectable = BinomialPmf(72, 2, ber);
      break;
    }
    case CodeKind::kChipkill: {
      const double symbol_error = 1.0 - std::pow(1.0 - ber, 8.0);
      const double ge2 = BinomialTail(18, 2, symbol_error);
      out.uncorrectable = ge2;
      // Multi-symbol errors alias to valid single-symbol corrections
      // with high probability; the paper conservatively reports them
      // as undetectable.
      out.undetectable = ge2;
      out.detectable_uncorrectable = -1.0;
      break;
    }
  }
  return out;
}

EnumeratedCode EnumerateCode(CodeKind kind, double ber) {
  if (kind == CodeKind::kChipkill) {
    const ChipkillSsc chipkill;
    return Enumerate(
        8 * ChipkillSsc::kTotalSymbols, 3, /*can_flag=*/true, ber,
        [&](std::span<const std::size_t> positions) {
          CodewordSsc word;
          for (const std::size_t position : positions) {
            word.symbols[position / 8] ^=
                static_cast<std::uint8_t>(1u << (position % 8));
          }
          const SscDecodeResult result = chipkill.Decode(word);
          return Outcome{result.data != std::array<std::uint8_t, 16>{},
                         result.status == DecodeStatus::kDetected};
        });
  }
  const Hamming72 hamming;
  const bool secded = kind == CodeKind::kSecded;
  return Enumerate(
      72, kMaxErrors, /*can_flag=*/secded, ber,
      [&](std::span<const std::size_t> positions) {
        Codeword72 word;
        for (const std::size_t position : positions) {
          word.FlipBit(position);
        }
        const DecodeResult result =
            secded ? hamming.Decode(word) : hamming.DecodeSecOnly(word);
        return Outcome{result.data != 0,
                       result.status == DecodeStatus::kDetected};
      });
}

}  // namespace vrddram::ecc
