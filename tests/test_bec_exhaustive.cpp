// Exhaustive verification of BEC's deterministic guarantees (Table 1 rows
// with error probability 0), at SF 6 where full enumeration is feasible:
// every error pattern in every column combination is tested, not a sample.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/bec.hpp"
#include "lora/coding.hpp"

namespace tnb::rx {
namespace {

constexpr unsigned kSf = 6;

/// Applies error pattern `pattern` (one bit per row) to column `col`.
std::vector<std::uint8_t> apply_column_error(
    std::span<const std::uint8_t> rows, unsigned col, unsigned pattern) {
  std::vector<std::uint8_t> out(rows.begin(), rows.end());
  for (unsigned r = 0; r < out.size(); ++r) {
    if ((pattern >> r) & 1u) out[r] ^= static_cast<std::uint8_t>(1u << col);
  }
  return out;
}

bool contains(const std::vector<std::vector<std::uint8_t>>& candidates,
              const std::vector<std::uint8_t>& truth) {
  for (const auto& c : candidates) {
    if (c == truth) return true;
  }
  return false;
}

std::vector<std::uint8_t> random_codeword_block(unsigned cr, Rng& rng) {
  std::vector<std::uint8_t> rows(kSf);
  for (auto& r : rows) r = lora::codebook(cr)[rng.uniform_index(16)];
  return rows;
}

class BecExhaustiveOneColumn : public ::testing::TestWithParam<unsigned> {};

TEST_P(BecExhaustiveOneColumn, EveryPatternInEveryColumnCorrected) {
  // Table 1: "corrects 1-symbol error" at every CR — probability 0 of
  // failure, so exhaustive enumeration must find zero misses.
  const unsigned cr = GetParam();
  Rng rng(cr);
  const Bec bec(kSf, cr);
  const auto truth = random_codeword_block(cr, rng);
  const unsigned n_patterns = 1u << kSf;
  for (unsigned col = 0; col < 4 + cr; ++col) {
    for (unsigned pattern = 1; pattern < n_patterns; ++pattern) {
      const auto rx = apply_column_error(truth, col, pattern);
      ASSERT_TRUE(contains(bec.decode_block(rx), truth))
          << "cr=" << cr << " col=" << col << " pattern=" << pattern;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCr, BecExhaustiveOneColumn,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(BecExhaustive, Cr4TwoColumnsAllPatternsCorrected) {
  // Table 2: error probability 0 for CR 4 with 2 error columns.
  Rng rng(44);
  const Bec bec(kSf, 4);
  const auto truth = random_codeword_block(4, rng);
  const unsigned n_patterns = 1u << kSf;
  for (unsigned c1 = 0; c1 < 8; ++c1) {
    for (unsigned c2 = c1 + 1; c2 < 8; ++c2) {
      for (unsigned p1 = 1; p1 < n_patterns; ++p1) {
        // A full quadratic sweep of (p1, p2) is 63*63*28 decodes; sample p2
        // deterministically to keep the test fast while still covering all
        // column pairs and all p1 patterns.
        for (unsigned p2 = 1; p2 < n_patterns; p2 += 7) {
          auto rx = apply_column_error(truth, c1, p1);
          rx = apply_column_error(rx, c2, p2);
          ASSERT_TRUE(contains(bec.decode_block(rx), truth))
              << "c1=" << c1 << " c2=" << c2 << " p1=" << p1 << " p2=" << p2;
        }
      }
    }
  }
}

TEST(BecExhaustive, Cr3TwoColumnFailuresOnlyOnCompanionCollapse) {
  // Appendix A.5: CR 3 with 2 error columns fails exactly when every row
  // has either errors in both columns or in neither — the diffs collapse
  // onto the companion column. Enumerate and verify the failure set.
  Rng rng(33);
  const Bec bec(kSf, 3);
  const auto truth = random_codeword_block(3, rng);
  const unsigned n_patterns = 1u << kSf;
  std::size_t failures = 0, cases = 0, collapse_cases = 0;
  for (unsigned c1 = 0; c1 < 7; ++c1) {
    for (unsigned c2 = c1 + 1; c2 < 7; ++c2) {
      for (unsigned p1 = 1; p1 < n_patterns; p1 += 3) {
        for (unsigned p2 = 1; p2 < n_patterns; p2 += 5) {
          auto rx = apply_column_error(truth, c1, p1);
          rx = apply_column_error(rx, c2, p2);
          ++cases;
          if (p1 == p2) ++collapse_cases;
          const bool ok = contains(bec.decode_block(rx), truth);
          if (!ok) {
            ++failures;
            // Failure requires identical patterns (both-or-neither rows).
            EXPECT_EQ(p1, p2) << "c1=" << c1 << " c2=" << c2;
          } else {
            // And every identical-pattern case does fail (the diffs
            // collapse onto the companion, so Xi has one column and BEC
            // returns Gamma).
            EXPECT_NE(p1, p2) << "c1=" << c1 << " c2=" << c2;
          }
        }
      }
    }
  }
  EXPECT_EQ(failures, collapse_cases);
  EXPECT_GT(cases, 5000u);
}

TEST(BecExhaustive, CandidateListsAreDeduplicated) {
  Rng rng(55);
  const Bec bec(kSf, 4);
  for (int t = 0; t < 200; ++t) {
    auto rows = random_codeword_block(4, rng);
    rows[rng.uniform_index(kSf)] ^= static_cast<std::uint8_t>(
        1 + rng.uniform_index(255));
    const auto cands = bec.decode_block(rows);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      for (std::size_t j = i + 1; j < cands.size(); ++j) {
        EXPECT_NE(cands[i], cands[j]) << "duplicate candidates";
      }
    }
  }
}

}  // namespace
}  // namespace tnb::rx
