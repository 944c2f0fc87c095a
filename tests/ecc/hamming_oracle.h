/**
 * @file
 * Test-only reference decoder for ecc::Hamming72: the syndrome is
 * accumulated bit by bit over all 72 codeword positions from the
 * codec's own parity-check columns, and the error position is found
 * by scanning those columns. The codec computes the same from per-byte
 * syndrome tables and a syndrome -> position table; tests check it
 * against this oracle.
 */
#ifndef VRDDRAM_TESTS_ECC_HAMMING_ORACLE_H
#define VRDDRAM_TESTS_ECC_HAMMING_ORACLE_H

#include <cstddef>
#include <cstdint>

#include "ecc/hamming.h"

namespace vrddram::oracle {

/// Decode `word` with `codec`'s columns. `detect` selects the SECDED
/// rule (an unmatched syndrome is kDetected) over plain SEC (kClean).
inline ecc::DecodeResult ReferenceDecode(const ecc::Hamming72& codec,
                                         const ecc::Codeword72& word,
                                         bool detect) {
  std::uint8_t syndrome = 0;
  for (std::size_t i = 0; i < 72; ++i) {
    if (word.GetBit(i)) {
      syndrome ^= codec.ColumnOf(i);
    }
  }
  ecc::DecodeResult result;
  result.data = word.data;
  if (syndrome == 0) {
    result.status = ecc::DecodeStatus::kClean;
    return result;
  }
  for (std::size_t i = 0; i < 72; ++i) {
    if (codec.ColumnOf(i) == syndrome) {
      ecc::Codeword72 fixed = word;
      fixed.FlipBit(i);
      result.status = ecc::DecodeStatus::kCorrected;
      result.data = fixed.data;
      return result;
    }
  }
  result.status =
      detect ? ecc::DecodeStatus::kDetected : ecc::DecodeStatus::kClean;
  return result;
}

}  // namespace vrddram::oracle

#endif  // VRDDRAM_TESTS_ECC_HAMMING_ORACLE_H
