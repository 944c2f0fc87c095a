/**
 * @file
 * Hamming-style (72,64) codes over one 64-bit data word: the SEC and
 * SECDED configurations of §6.4 / Table 3. The code is a Hsiao code:
 * all parity-check columns have odd weight, so any double-bit error
 * produces an even-weight syndrome and is detected (SECDED); the SEC
 * configuration decodes the same codeword but, lacking the double-error
 * rule, silently miscorrects double errors.
 */
#ifndef VRDDRAM_ECC_HAMMING_H
#define VRDDRAM_ECC_HAMMING_H

#include <array>
#include <cstdint>

namespace vrddram::ecc {

/// 72-bit codeword: 64 data bits + 8 check bits.
struct Codeword72 {
  std::uint64_t data = 0;
  std::uint8_t check = 0;

  bool GetBit(std::size_t position) const;
  void FlipBit(std::size_t position);
  friend bool operator==(const Codeword72&, const Codeword72&) = default;
};

enum class DecodeStatus : std::uint8_t {
  kClean,           ///< no error detected
  kCorrected,       ///< single error corrected
  kDetected,        ///< uncorrectable error detected (SECDED only)
  kMiscorrected,    ///< silently produced wrong data (known only to
                    ///< callers holding the reference data; decoders
                    ///< themselves report kCorrected)
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kClean;
  std::uint64_t data = 0;
};

/**
 * Hsiao (72,64) codec. Decode() implements the SECDED rules;
 * DecodeSecOnly() implements a plain SEC decoder on the same code
 * (corrects whatever single-bit flip the syndrome points at, never
 * declares detection).
 *
 * Table-driven: the constructor folds the parity-check matrix into one
 * 256-entry syndrome table per data byte and one syndrome -> position
 * table, so a syndrome is the check byte XOR eight lookups and the
 * correction is one lookup.
 */
class Hamming72 {
 public:
  Hamming72();

  Codeword72 Encode(std::uint64_t data) const;
  /// SECDED decode.
  DecodeResult Decode(const Codeword72& word) const;
  /// SEC-only decode (no double-error detection).
  DecodeResult DecodeSecOnly(const Codeword72& word) const;

  /// Parity-check column of a codeword bit position (tests).
  std::uint8_t ColumnOf(std::size_t position) const {
    return columns_[position];
  }

 private:
  /// position_of_ entry of a syndrome that matches no column.
  static constexpr std::uint8_t kNoPosition = 0xFF;

  /// Check bits of `data` (the syndrome of its data bits alone).
  std::uint8_t DataSyndrome(std::uint64_t data) const;
  /// The shared decoder; `unmatched` is the status of a nonzero
  /// syndrome that matches no column.
  DecodeResult DecodeWith(const Codeword72& word,
                          DecodeStatus unmatched) const;

  /// columns_[0..63]: data bits; columns_[64..71]: check bits.
  std::array<std::uint8_t, 72> columns_{};
  /// byte_syndrome_[b][v]: syndrome of data byte b holding value v.
  std::array<std::array<std::uint8_t, 256>, 8> byte_syndrome_{};
  /// position_of_[s]: the codeword position whose column is s.
  std::array<std::uint8_t, 256> position_of_{};
};

}  // namespace vrddram::ecc

#endif  // VRDDRAM_ECC_HAMMING_H
