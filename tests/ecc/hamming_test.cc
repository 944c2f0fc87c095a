#include "ecc/hamming.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "common/rng.h"
#include "ecc/hamming_oracle.h"

namespace vrddram::ecc {
namespace {

TEST(HammingTest, ColumnsAreDistinctAndOddWeight) {
  const Hamming72 codec;
  std::set<std::uint8_t> seen;
  for (std::size_t i = 0; i < 72; ++i) {
    const std::uint8_t column = codec.ColumnOf(i);
    EXPECT_EQ(std::popcount(static_cast<unsigned>(column)) % 2, 1)
        << "Hsiao columns must have odd weight (position " << i << ")";
    EXPECT_TRUE(seen.insert(column).second)
        << "duplicate column at position " << i;
  }
}

TEST(HammingTest, CleanCodewordDecodesClean) {
  const Hamming72 codec;
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t data = rng.Next();
    const Codeword72 word = codec.Encode(data);
    const DecodeResult result = codec.Decode(word);
    EXPECT_EQ(result.status, DecodeStatus::kClean);
    EXPECT_EQ(result.data, data);
  }
}

class HammingSingleErrorTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HammingSingleErrorTest, EverySingleBitErrorIsCorrected) {
  const Hamming72 codec;
  const std::uint64_t data = 0xDEADBEEFCAFEBABEull;
  Codeword72 word = codec.Encode(data);
  word.FlipBit(GetParam());

  const DecodeResult secded = codec.Decode(word);
  EXPECT_EQ(secded.status, DecodeStatus::kCorrected);
  EXPECT_EQ(secded.data, data);

  const DecodeResult sec = codec.DecodeSecOnly(word);
  EXPECT_EQ(sec.status, DecodeStatus::kCorrected);
  EXPECT_EQ(sec.data, data);
}

INSTANTIATE_TEST_SUITE_P(AllPositions, HammingSingleErrorTest,
                         ::testing::Range<std::size_t>(0, 72));

TEST(HammingTest, SecdedDetectsAllDoubleErrors) {
  const Hamming72 codec;
  const std::uint64_t data = 0x0123456789ABCDEFull;
  for (std::size_t i = 0; i < 72; ++i) {
    for (std::size_t j = i + 1; j < 72; j += 7) {  // sampled pairs
      Codeword72 word = codec.Encode(data);
      word.FlipBit(i);
      word.FlipBit(j);
      const DecodeResult result = codec.Decode(word);
      EXPECT_EQ(result.status, DecodeStatus::kDetected)
          << "double error (" << i << ", " << j << ") must be detected";
    }
  }
}

TEST(HammingTest, SecSilentlyMishandlesDoubleErrors) {
  // A SEC decoder never reports detection; double errors either
  // miscorrect (wrong data, status kCorrected) or pass through
  // silently (status kClean, still-corrupted data).
  const Hamming72 codec;
  const std::uint64_t data = 0x5555AAAA33337777ull;
  int silent_corruptions = 0;
  for (std::size_t i = 0; i < 72; i += 3) {
    for (std::size_t j = i + 1; j < 72; j += 5) {
      Codeword72 word = codec.Encode(data);
      word.FlipBit(i);
      word.FlipBit(j);
      const DecodeResult result = codec.DecodeSecOnly(word);
      EXPECT_NE(result.status, DecodeStatus::kDetected);
      if (result.data != data) {
        ++silent_corruptions;
      }
    }
  }
  EXPECT_GT(silent_corruptions, 0);
}

TEST(HammingTest, TripleErrorsMayEscapeSecded) {
  // >= 3 errors can alias to a single-bit syndrome: SECDED then
  // "corrects" to wrong data (the paper's SECDED undetectable case).
  const Hamming72 codec;
  const std::uint64_t data = 0;
  int undetected = 0;
  int checked = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 24; j < 48; j += 3) {
      for (std::size_t k = 48; k < 72; k += 5) {
        Codeword72 word = codec.Encode(data);
        word.FlipBit(i);
        word.FlipBit(j);
        word.FlipBit(k);
        const DecodeResult result = codec.Decode(word);
        ++checked;
        if (result.status == DecodeStatus::kCorrected &&
            result.data != data) {
          ++undetected;
        }
      }
    }
  }
  EXPECT_GT(undetected, 0) << "of " << checked << " triples";
}

TEST(HammingTest, TableDrivenDecodersMatchTheBitwiseReference) {
  // Every pattern of <= 3 flipped bits of two codewords: the clean word,
  // 72 singles, 2,556 pairs and 59,640 triples each.
  const Hamming72 codec;
  std::size_t patterns = 0;
  for (const std::uint64_t data :
       {0x0000000000000000ull, 0xDEADBEEFCAFEBABEull}) {
    const Codeword72 clean = codec.Encode(data);
    ASSERT_EQ(oracle::ReferenceDecode(codec, clean, true).status,
              DecodeStatus::kClean);
    const auto check = [&](const Codeword72& word) {
      ++patterns;
      for (const bool detect : {false, true}) {
        const DecodeResult expected =
            oracle::ReferenceDecode(codec, word, detect);
        const DecodeResult actual =
            detect ? codec.Decode(word) : codec.DecodeSecOnly(word);
        ASSERT_EQ(actual.status, expected.status)
            << std::hex << word.data << " / " << int{word.check};
        ASSERT_EQ(actual.data, expected.data)
            << std::hex << word.data << " / " << int{word.check};
      }
    };
    check(clean);
    for (std::size_t i = 0; i < 72; ++i) {
      Codeword72 one = clean;
      one.FlipBit(i);
      check(one);
      for (std::size_t j = i + 1; j < 72; ++j) {
        Codeword72 two = one;
        two.FlipBit(j);
        check(two);
        for (std::size_t k = j + 1; k < 72; ++k) {
          Codeword72 three = two;
          three.FlipBit(k);
          check(three);
        }
      }
    }
  }
  EXPECT_EQ(patterns, 2u * (1 + 72 + 2556 + 59640));
}

TEST(HammingTest, BitAccessors) {
  Codeword72 word;
  word.data = 1;
  EXPECT_TRUE(word.GetBit(0));
  EXPECT_FALSE(word.GetBit(1));
  word.FlipBit(64);
  EXPECT_TRUE(word.GetBit(64));
  EXPECT_EQ(word.check, 1);
}

}  // namespace
}  // namespace vrddram::ecc
