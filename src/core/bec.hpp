// Block Error Correction (paper Section 6, Appendix A).
//
// LoRa arranges codewords in SF x (4+CR) blocks where one corrupted symbol
// corrupts one *column*. BEC decodes the block jointly: it diffs the
// received block R against the per-row nearest-codeword "cleaned" block
// Gamma, reads off the set Xi of single-difference columns (each is a true
// error column or the *companion* of the true error columns — the column
// the default decoder wrongly flips), and repairs R under every plausible
// hypothesis for the true error columns. The packet-level CRC arbitrates
// among the resulting BEC-fixed blocks.
//
// Repair methods (paper 6.3): Delta' (CR 1 checksum rewrite), Delta_1
// (mask a column set, re-match rows), Delta_2 (flip one known column, allow
// one consistent mismatch column), Delta_3 (flip two columns, exact match).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lora/coding.hpp"

namespace tnb::rx {

/// Instrumentation counters (Table 2, Fig. 16).
struct BecStats {
  std::size_t delta_prime = 0;  ///< Delta' applications
  std::size_t delta1 = 0;       ///< Delta_1 applications (incl. failed)
  std::size_t delta2 = 0;
  std::size_t delta3 = 0;
  std::size_t crc_checks = 0;        ///< packet-level CRC evaluations
  std::size_t blocks_no_repair = 0;  ///< blocks returned as Gamma only
  std::size_t candidate_blocks = 0;  ///< BEC-fixed blocks produced

  BecStats& operator+=(const BecStats& o);
};

/// Joint decoder for one SF x (4+CR) code block.
class Bec {
 public:
  /// Decoder for blocks of `sf` rows coded at `cr` with the codebook of
  /// `coding` (the paper's by default). The column error model is
  /// codebook-agnostic, so BEC repairs both frame formats. The minimum
  /// distance is derived from the codebook (minimum nonzero codeword
  /// weight; both codes are linear): 2, 2, 3, 4 at CR 1-4.
  Bec(unsigned sf, unsigned cr, lora::Coding coding = lora::Coding::kPaper);

  unsigned sf() const { return sf_; }
  unsigned cr() const { return cr_; }

  /// Candidate decodings of a received block (`rows.size() == sf`, each row
  /// 4+CR bits). The first candidate is always the default-decoder cleaned
  /// block; further candidates are BEC-fixed blocks in repair order.
  /// Candidates are deduplicated.
  std::vector<std::vector<std::uint8_t>> decode_block(
      std::span<const std::uint8_t> rows, BecStats* stats = nullptr) const;

  /// Companions of the column set `mask` (paper A.1): every column set that
  /// completes `mask` to a minimum-weight codeword. |mask| must be below
  /// the code's minimum distance.
  std::vector<std::uint8_t> companions(std::uint8_t mask) const;

 private:
  std::vector<std::vector<std::uint8_t>> decode_cr1(
      std::span<const std::uint8_t> rows, BecStats* stats) const;

  /// Delta_1: mask the columns in `mask`, re-match every row against the
  /// codebook. Returns the repaired rows or nullopt.
  std::optional<std::vector<std::uint8_t>> delta1(
      std::span<const std::uint8_t> rows, std::uint8_t mask,
      BecStats* stats) const;

  /// Delta_2: flip column `k1` in the weight-2-difference rows; each must
  /// land at distance exactly 1 from a codeword, all with the same
  /// mismatch column. Returns repaired rows or nullopt.
  std::optional<std::vector<std::uint8_t>> delta2(
      std::span<const std::uint8_t> rows,
      std::span<const std::uint8_t> gamma,
      std::span<const unsigned> diff_weight, unsigned k1,
      BecStats* stats) const;

  /// Delta_2 scan used for 3-column discovery: the distinct mismatch
  /// columns of the weight-2 rows after flipping `k1` (empty = some row has
  /// no distance-1 codeword).
  std::vector<unsigned> delta2_mismatch_columns(
      std::span<const std::uint8_t> rows,
      std::span<const std::uint8_t> gamma,
      std::span<const unsigned> diff_weight, unsigned k1) const;

  /// Delta_3: flip columns `k1`,`k2` in weight-2 rows; each must equal a
  /// codeword exactly.
  std::optional<std::vector<std::uint8_t>> delta3(
      std::span<const std::uint8_t> rows,
      std::span<const unsigned> diff_weight, unsigned k1, unsigned k2,
      BecStats* stats) const;

  unsigned sf_;
  unsigned cr_;
  unsigned n_cols_;
  unsigned dmin_;
  lora::Codebook book_;
};

/// CRC budget W per coding rate (paper 6.9): 125 for CR 1, 16 otherwise.
std::size_t bec_w_budget(unsigned cr);

}  // namespace tnb::rx
