#include "ecc/hamming.h"

#include <bit>

#include "common/error.h"

namespace vrddram::ecc {

bool Codeword72::GetBit(std::size_t position) const {
  VRD_ASSERT(position < 72);
  if (position < 64) {
    return (data >> position) & 1;
  }
  return (check >> (position - 64)) & 1;
}

void Codeword72::FlipBit(std::size_t position) {
  VRD_ASSERT(position < 72);
  if (position < 64) {
    data ^= (1ull << position);
  } else {
    check ^= static_cast<std::uint8_t>(1u << (position - 64));
  }
}

Hamming72::Hamming72() {
  // Hsiao construction: 64 distinct odd-weight columns of weight >= 3
  // for the data bits (all 56 weight-3 columns plus 8 weight-5
  // columns), and unit columns for the check bits.
  std::size_t next = 0;
  for (int weight : {3, 5}) {
    for (unsigned candidate = 0; candidate < 256 && next < 64;
         ++candidate) {
      if (std::popcount(candidate) == weight) {
        columns_[next++] = static_cast<std::uint8_t>(candidate);
      }
    }
  }
  VRD_ASSERT(next == 64);
  for (std::size_t i = 0; i < 8; ++i) {
    columns_[64 + i] = static_cast<std::uint8_t>(1u << i);
  }

  // A byte's syndrome is its lowest set bit's column XOR the syndrome
  // of the byte without that bit.
  for (std::size_t byte = 0; byte < 8; ++byte) {
    for (unsigned value = 1; value < 256; ++value) {
      byte_syndrome_[byte][value] = static_cast<std::uint8_t>(
          byte_syndrome_[byte][value & (value - 1)] ^
          columns_[8 * byte +
                   static_cast<std::size_t>(std::countr_zero(value))]);
    }
  }
  position_of_.fill(kNoPosition);
  for (std::size_t i = 0; i < 72; ++i) {
    position_of_[columns_[i]] = static_cast<std::uint8_t>(i);
  }
}

std::uint8_t Hamming72::DataSyndrome(std::uint64_t data) const {
  std::uint8_t syndrome = 0;
  for (std::size_t byte = 0; byte < 8; ++byte) {
    syndrome ^= byte_syndrome_[byte][(data >> (8 * byte)) & 0xFF];
  }
  return syndrome;
}

Codeword72 Hamming72::Encode(std::uint64_t data) const {
  Codeword72 word;
  word.data = data;
  word.check = DataSyndrome(data);
  return word;
}

DecodeResult Hamming72::DecodeWith(const Codeword72& word,
                                   DecodeStatus unmatched) const {
  // The check bits' columns are the unit vectors, so they enter the
  // syndrome as the check byte itself.
  const std::uint8_t syndrome =
      static_cast<std::uint8_t>(word.check ^ DataSyndrome(word.data));
  DecodeResult result;
  result.data = word.data;
  if (syndrome == 0) {
    result.status = DecodeStatus::kClean;
    return result;
  }
  const std::uint8_t position = position_of_[syndrome];
  if (position == kNoPosition) {
    result.status = unmatched;
    return result;
  }
  if (position < 64) {
    result.data ^= 1ull << position;
  }
  result.status = DecodeStatus::kCorrected;
  return result;
}

DecodeResult Hamming72::Decode(const Codeword72& word) const {
  // All columns are odd weight: a double error yields an even-weight
  // syndrome that matches no column; odd-weight non-column syndromes
  // (>= 3 errors) are likewise flagged.
  return DecodeWith(word, DecodeStatus::kDetected);
}

DecodeResult Hamming72::DecodeSecOnly(const Codeword72& word) const {
  // A SEC decoder has no detection rule: an unmatched syndrome means
  // it silently passes the (corrupted) data through.
  return DecodeWith(word, DecodeStatus::kClean);
}

}  // namespace vrddram::ecc
