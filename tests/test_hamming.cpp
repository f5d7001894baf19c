#include <gtest/gtest.h>

#include <bit>

#include "lora/coding.hpp"

namespace tnb::lora {
namespace {

unsigned weight(std::uint8_t x) { return static_cast<unsigned>(std::popcount(static_cast<unsigned>(x))); }

TEST(Hamming, PaperExampleCodeword) {
  // Paper Section 3: data '1001' -> codeword '10011100'.
  // The paper writes bits left-to-right as columns 1..8; our storage is
  // LSB-first, so data 1001 (d1=1, d2=0, d3=0, d4=1) is nibble 0b1001.
  const std::uint8_t cw = codebook(4)[0b1001];
  EXPECT_EQ(cw & 1, 1);         // c1 = 1
  EXPECT_EQ((cw >> 1) & 1, 0);  // c2 = 0
  EXPECT_EQ((cw >> 2) & 1, 0);  // c3 = 0
  EXPECT_EQ((cw >> 3) & 1, 1);  // c4 = 1
  EXPECT_EQ((cw >> 4) & 1, 1);  // c5 = 1
  EXPECT_EQ((cw >> 5) & 1, 1);  // c6 = 1
  EXPECT_EQ((cw >> 6) & 1, 0);  // c7 = 0
  EXPECT_EQ((cw >> 7) & 1, 0);  // c8 = 0
}

TEST(Hamming, Cr3PaperExample) {
  // Paper: with CR 3 the transmitted codeword for '1001' is '1001110'.
  const std::uint8_t cw = codebook(3)[0b1001];
  EXPECT_EQ(cw, 0b0111001);
}

TEST(Hamming, Cr1IsChecksum) {
  for (std::uint8_t d = 0; d < 16; ++d) {
    const std::uint8_t cw = codebook(1)[d];
    EXPECT_EQ(weight(cw) % 2, 0u) << "CR1 codeword must have even parity";
    EXPECT_EQ(cw & 0x0F, d);
  }
}

TEST(Hamming, CodeIsLinear) {
  for (unsigned cr = 2; cr <= 4; ++cr) {
    const auto& t = codebook(cr);
    for (unsigned a = 0; a < 16; ++a) {
      for (unsigned b = 0; b < 16; ++b) {
        EXPECT_EQ(t[a] ^ t[b], t[a ^ b]) << "cr=" << cr;
      }
    }
  }
}

TEST(Hamming, Cr1IsAlsoLinear) {
  const auto& t = codebook(1);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 0; b < 16; ++b) EXPECT_EQ(t[a] ^ t[b], t[a ^ b]);
  }
}

class HammingMinDistance : public ::testing::TestWithParam<unsigned> {};

TEST_P(HammingMinDistance, MatchesExpectation) {
  const unsigned cr = GetParam();
  const auto& t = codebook(cr);
  unsigned dmin = 8;
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = a + 1; b < 16; ++b) {
      dmin = std::min(dmin, weight(static_cast<std::uint8_t>(t[a] ^ t[b])));
    }
  }
  const unsigned expect[5] = {0, 2, 2, 3, 4};
  EXPECT_EQ(dmin, expect[cr]);
}

INSTANTIATE_TEST_SUITE_P(AllCr, HammingMinDistance, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Hamming, DefaultDecodeCleanCodewords) {
  for (unsigned cr = 1; cr <= 4; ++cr) {
    const auto& t = codebook(cr);
    for (unsigned d = 0; d < 16; ++d) {
      const auto r = nearest_codeword(t[d], t);
      EXPECT_EQ(r.data, d);
      EXPECT_EQ(r.distance, 0u);
      EXPECT_TRUE(r.unique);
    }
  }
}

class HammingOneBit : public ::testing::TestWithParam<unsigned> {};

TEST_P(HammingOneBit, Cr3Cr4CorrectAllSingleBitErrors) {
  const unsigned cr = GetParam();
  const auto& t = codebook(cr);
  for (unsigned d = 0; d < 16; ++d) {
    for (unsigned b = 0; b < 4 + cr; ++b) {
      const std::uint8_t rx = static_cast<std::uint8_t>(t[d] ^ (1u << b));
      const auto r = nearest_codeword(rx, t);
      EXPECT_EQ(r.data, d) << "cr=" << cr << " data=" << d << " bit=" << b;
      EXPECT_TRUE(r.unique);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CorrectingRates, HammingOneBit, ::testing::Values(3u, 4u));

class HammingDetectOnly : public ::testing::TestWithParam<unsigned> {};

TEST_P(HammingDetectOnly, Cr1Cr2DetectSingleBitErrors) {
  // dmin = 2: a 1-bit error is detected (distance 1 from >= 1 codeword, but
  // never decodes to distance 0) yet not uniquely correctable.
  const unsigned cr = GetParam();
  const auto& t = codebook(cr);
  for (unsigned d = 0; d < 16; ++d) {
    for (unsigned b = 0; b < 4 + cr; ++b) {
      const std::uint8_t rx = static_cast<std::uint8_t>(t[d] ^ (1u << b));
      const auto r = nearest_codeword(rx, t);
      EXPECT_EQ(r.distance, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DetectingRates, HammingDetectOnly, ::testing::Values(1u, 2u));

TEST(Hamming, Cr4TwoBitErrorsAreDetected) {
  // dmin = 4: any 2-bit error stays at distance >= 2 from every codeword,
  // so the default decoder can never silently mis-decode it to distance <= 1.
  const auto& t = codebook(4);
  for (unsigned d = 0; d < 16; ++d) {
    for (unsigned b1 = 0; b1 < 8; ++b1) {
      for (unsigned b2 = b1 + 1; b2 < 8; ++b2) {
        const std::uint8_t rx =
            static_cast<std::uint8_t>(t[d] ^ (1u << b1) ^ (1u << b2));
        const auto r = nearest_codeword(rx, t);
        EXPECT_EQ(r.distance, 2u);
        EXPECT_FALSE(r.unique);  // always ambiguous at distance dmin/2
      }
    }
  }
}

TEST(Hamming, InvalidCrThrows) {
  EXPECT_THROW(codebook(0), std::invalid_argument);
  EXPECT_THROW(codebook(5), std::invalid_argument);
  EXPECT_THROW(codebook(9, Coding::kWire), std::invalid_argument);
}

TEST(Hamming, Cr4HasThreeWeightFourCodewordsContainingAnyPair) {
  // Appendix A.1: for CR 4 every pair of columns appears in exactly 3
  // weight-4 codewords (the companion-group property).
  const auto& t = codebook(4);
  for (unsigned c1 = 0; c1 < 8; ++c1) {
    for (unsigned c2 = c1 + 1; c2 < 8; ++c2) {
      unsigned count = 0;
      for (unsigned d = 1; d < 16; ++d) {
        const std::uint8_t cw = t[d];
        if (weight(cw) == 4 && (cw >> c1 & 1) && (cw >> c2 & 1)) ++count;
      }
      EXPECT_EQ(count, 3u) << "pair " << c1 << "," << c2;
    }
  }
}

}  // namespace
}  // namespace tnb::lora
