// The paper's worked example (Figs. 2 and 7): an SF 8 / CR 3 block with
// symbols 2 and 7 corrupted, where one row takes errors in both columns
// and the default decoder "snaps" it to the wrong codeword by flipping the
// companion column 3. BEC tests all combinations of two columns from
// Xi = {c2, c3, c7} and recovers the transmitted block.
#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hpp"
#include "core/bec.hpp"
#include "lora/coding.hpp"

namespace tnb::rx {
namespace {

// Paper columns are 1-indexed; our bit positions are 0-indexed.
constexpr unsigned kCol2 = 1;
constexpr unsigned kCol3 = 2;
constexpr unsigned kCol7 = 6;

TEST(PaperExample, CompanionOfColumns2And7IsColumn3) {
  // Section 6.1: "a binary vector with '1's only in columns 2, 3 and 7 is
  // a valid codeword", making c3 the companion of {c2, c7} — and cyclically
  // c2 of {c3, c7}, c7 of {c2, c3}.
  const Bec bec(8, 3);
  const auto c27 = bec.companions((1u << kCol2) | (1u << kCol7));
  ASSERT_EQ(c27.size(), 1u);
  EXPECT_EQ(c27[0], 1u << kCol3);
  const auto c37 = bec.companions((1u << kCol3) | (1u << kCol7));
  ASSERT_EQ(c37.size(), 1u);
  EXPECT_EQ(c37[0], 1u << kCol2);
  const auto c23 = bec.companions((1u << kCol2) | (1u << kCol3));
  ASSERT_EQ(c23.size(), 1u);
  EXPECT_EQ(c23[0], 1u << kCol7);

  // The underlying fact: 0b1000110 (columns 2,3,7 set) is a codeword.
  bool found = false;
  for (unsigned d = 0; d < 16; ++d) {
    if (lora::codebook(3)[d] ==
        ((1u << kCol2) | (1u << kCol3) | (1u << kCol7))) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PaperExample, Fig2Fig7BlockRecovered) {
  // Build the Fig. 2 situation: SF 8, CR 3; errors confined to columns 2
  // and 7; row 7 (index 6) has errors in BOTH columns, every other row in
  // at most one.
  Rng rng(2022);
  std::vector<std::uint8_t> truth(8);
  for (auto& r : truth) r = lora::codebook(3)[rng.uniform_index(16)];

  std::vector<std::uint8_t> received = truth;
  // Single errors: rows 2,3,4 in column 2; rows 5,6,8 in column 7.
  for (unsigned r : {1u, 2u, 3u}) received[r] ^= 1u << kCol2;
  for (unsigned r : {4u, 5u, 7u}) received[r] ^= 1u << kCol7;
  // Row 7 (index 6): errors in both true error columns.
  received[6] ^= (1u << kCol2) | (1u << kCol7);

  // The default decoder fixes every single-error row but mis-corrects
  // row 7 by flipping companion column 3 (Fig. 2(c)).
  for (unsigned r = 0; r < 8; ++r) {
    const auto d = lora::nearest_codeword(received[r], lora::codebook(3));
    if (r == 6) {
      EXPECT_NE(d.codeword, truth[r]);
      EXPECT_EQ(d.codeword, received[r] ^ (1u << kCol3))
          << "default decoder must flip the companion column";
    } else {
      EXPECT_EQ(d.codeword, truth[r]);
    }
  }

  // BEC produces the three Delta_1 repairs of Fig. 7 and one of them is
  // the transmitted block; the packet CRC would select it.
  const Bec bec(8, 3);
  BecStats stats;
  const auto candidates = bec.decode_block(received, &stats);
  EXPECT_EQ(stats.delta1, 3u);  // combinations {2,3},{2,7},{3,7}
  bool recovered = false;
  for (const auto& cand : candidates) {
    if (cand == truth) recovered = true;
  }
  EXPECT_TRUE(recovered);
}

TEST(PaperExample, XiContainsTrueColumnsAndCompanion) {
  // With the Fig. 2 error pattern, the single-error rows reveal columns 2
  // and 7 and the double-error row contributes the companion column 3 —
  // the Xi = {c2, c3, c7} the paper reads off the diffs.
  Rng rng(7);
  std::vector<std::uint8_t> truth(8);
  for (auto& r : truth) r = lora::codebook(3)[rng.uniform_index(16)];
  std::vector<std::uint8_t> received = truth;
  for (unsigned r : {1u, 2u, 3u}) received[r] ^= 1u << kCol2;
  for (unsigned r : {4u, 5u, 7u}) received[r] ^= 1u << kCol7;
  received[6] ^= (1u << kCol2) | (1u << kCol7);

  std::uint8_t xi = 0;
  for (unsigned r = 0; r < 8; ++r) {
    const std::uint8_t diff =
        received[r] ^ lora::nearest_codeword(received[r], lora::codebook(3)).codeword;
    if (std::popcount(static_cast<unsigned>(diff)) == 1) xi |= diff;
  }
  EXPECT_EQ(xi, (1u << kCol2) | (1u << kCol3) | (1u << kCol7));
}

}  // namespace
}  // namespace tnb::rx
