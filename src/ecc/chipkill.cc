#include "ecc/chipkill.h"

#include "common/error.h"

namespace vrddram::ecc {

CodewordSsc ChipkillSsc::Encode(
    const std::array<std::uint8_t, 16>& data) const {
  const Gf256& gf = Gf256::Instance();
  CodewordSsc word;
  for (std::size_t i = 0; i < kDataSymbols; ++i) {
    word.symbols[i] = data[i];
  }
  // Solve for check symbols c16, c17 such that
  //   S0 = sum_i c_i           = 0
  //   S1 = sum_i c_i * alpha^i = 0
  std::uint8_t s0 = 0;
  std::uint8_t s1 = 0;
  for (std::size_t i = 0; i < kDataSymbols; ++i) {
    s0 = gf.Add(s0, data[i]);
    s1 = gf.Add(s1, gf.Mul(data[i], gf.Exp(static_cast<int>(i))));
  }
  // c16 + c17 = s0 ; c16*a^16 + c17*a^17 = s1
  // => c17 = (s1 + s0*a^16) / (a^16 + a^17), c16 = s0 + c17.
  const std::uint8_t a16 = gf.Exp(16);
  const std::uint8_t a17 = gf.Exp(17);
  const std::uint8_t denom = gf.Add(a16, a17);
  const std::uint8_t c17 =
      gf.Div(gf.Add(s1, gf.Mul(s0, a16)), denom);
  const std::uint8_t c16 = gf.Add(s0, c17);
  word.symbols[16] = c16;
  word.symbols[17] = c17;
  return word;
}

SscDecodeResult ChipkillSsc::Decode(const CodewordSsc& word) const {
  const Gf256& gf = Gf256::Instance();
  std::uint8_t s0 = 0;
  std::uint8_t s1 = 0;
  for (std::size_t i = 0; i < kTotalSymbols; ++i) {
    // A zero symbol adds nothing to either syndrome; skipping it makes
    // a sparse word (an error pattern on the zero codeword) cheap.
    if (word.symbols[i] == 0) {
      continue;
    }
    s0 = gf.Add(s0, word.symbols[i]);
    s1 = gf.Add(s1, gf.Mul(word.symbols[i], gf.Exp(static_cast<int>(i))));
  }

  SscDecodeResult result;
  auto copy_data = [&](const CodewordSsc& from) {
    for (std::size_t i = 0; i < kDataSymbols; ++i) {
      result.data[i] = from.symbols[i];
    }
  };

  if (s0 == 0 && s1 == 0) {
    result.status = DecodeStatus::kClean;
    copy_data(word);
    return result;
  }
  if (s0 != 0 && s1 != 0) {
    // Single error of value s0 at position log(S1/S0).
    const int position = gf.Log(gf.Div(s1, s0));
    if (position >= 0 &&
        position < static_cast<int>(kTotalSymbols)) {
      CodewordSsc fixed = word;
      fixed.symbols[static_cast<std::size_t>(position)] =
          gf.Add(fixed.symbols[static_cast<std::size_t>(position)], s0);
      result.status = DecodeStatus::kCorrected;
      copy_data(fixed);
      return result;
    }
  }
  // S0 == 0 xor S1 == 0, or a position outside the (shortened)
  // codeword: at least two symbols are in error.
  result.status = DecodeStatus::kDetected;
  copy_data(word);
  return result;
}

}  // namespace vrddram::ecc
