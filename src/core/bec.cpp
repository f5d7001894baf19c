#include "core/bec.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>


namespace tnb::rx {
namespace {

unsigned weight(std::uint8_t x) {
  return static_cast<unsigned>(std::popcount(static_cast<unsigned>(x)));
}

/// Appends `rows` to `out` unless an identical candidate is present.
void push_unique(std::vector<std::vector<std::uint8_t>>& out,
                 std::vector<std::uint8_t> rows) {
  for (const auto& existing : out) {
    if (existing == rows) return;
  }
  out.push_back(std::move(rows));
}

}  // namespace

BecStats& BecStats::operator+=(const BecStats& o) {
  delta_prime += o.delta_prime;
  delta1 += o.delta1;
  delta2 += o.delta2;
  delta3 += o.delta3;
  crc_checks += o.crc_checks;
  blocks_no_repair += o.blocks_no_repair;
  candidate_blocks += o.candidate_blocks;
  return *this;
}

Bec::Bec(unsigned sf, unsigned cr, lora::Coding coding)
    : sf_(sf), cr_(cr), n_cols_(4 + cr) {
  // SF here is the block row count; the wire format's reduced-rate first
  // block has SF-2 rows, so 5 rows (SF5, or SF7 reduced) is the floor.
  if (sf < 5 || sf > 12) throw std::invalid_argument("Bec: SF must be 5..12");
  book_ = lora::codebook(cr, coding);  // throws unless 1 <= cr <= 4
  dmin_ = n_cols_;  // linear code: dmin = min nonzero codeword weight
  for (unsigned d = 1; d < 16; ++d) dmin_ = std::min(dmin_, weight(book_[d]));
}

std::vector<std::uint8_t> Bec::companions(std::uint8_t mask) const {
  std::vector<std::uint8_t> out;
  if (weight(mask) >= dmin_) return out;
  for (unsigned d = 1; d < 16; ++d) {
    const std::uint8_t cw = book_[d];
    if (weight(cw) != dmin_) continue;
    if ((cw & mask) != mask) continue;
    out.push_back(static_cast<std::uint8_t>(cw ^ mask));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<std::vector<std::uint8_t>> Bec::delta1(
    std::span<const std::uint8_t> rows, std::uint8_t mask,
    BecStats* stats) const {
  if (stats != nullptr) ++stats->delta1;
  const std::uint8_t keep = static_cast<std::uint8_t>(
      ~mask & ((1u << n_cols_) - 1u));
  std::vector<std::uint8_t> fixed(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    bool found = false;
    for (unsigned d = 0; d < 16; ++d) {
      const std::uint8_t cw = book_[d];
      if (((cw ^ rows[r]) & keep) == 0) {
        fixed[r] = cw;
        found = true;
        break;  // unique: |mask| < dmin
      }
    }
    if (!found) return std::nullopt;
  }
  return fixed;
}

std::vector<unsigned> Bec::delta2_mismatch_columns(
    std::span<const std::uint8_t> rows, std::span<const std::uint8_t> gamma,
    std::span<const unsigned> diff_weight, unsigned k1) const {
  std::set<unsigned> cols;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (diff_weight[r] != 2) continue;
    const std::uint8_t flipped =
        static_cast<std::uint8_t>(rows[r] ^ (1u << k1));
    bool found = false;
    for (unsigned d = 0; d < 16 && !found; ++d) {
      const std::uint8_t cw = book_[d];
      const std::uint8_t diff = static_cast<std::uint8_t>(cw ^ flipped);
      if (weight(diff) == 1) {
        cols.insert(static_cast<unsigned>(std::countr_zero(
            static_cast<unsigned>(diff))));
        found = true;
      }
    }
    if (!found) return {};  // no distance-1 codeword: scan fails
  }
  (void)gamma;
  return std::vector<unsigned>(cols.begin(), cols.end());
}

std::optional<std::vector<std::uint8_t>> Bec::delta2(
    std::span<const std::uint8_t> rows, std::span<const std::uint8_t> gamma,
    std::span<const unsigned> diff_weight, unsigned k1,
    BecStats* stats) const {
  if (stats != nullptr) ++stats->delta2;
  std::vector<std::uint8_t> fixed(rows.size());
  int mismatch_col = -1;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (diff_weight[r] == 0) {
      fixed[r] = rows[r];
      continue;
    }
    if (diff_weight[r] == 1) {
      fixed[r] = gamma[r];
      continue;
    }
    const std::uint8_t flipped =
        static_cast<std::uint8_t>(rows[r] ^ (1u << k1));
    bool found = false;
    for (unsigned d = 0; d < 16 && !found; ++d) {
      const std::uint8_t cw = book_[d];
      const std::uint8_t diff = static_cast<std::uint8_t>(cw ^ flipped);
      if (weight(diff) == 1) {
        const int col = std::countr_zero(static_cast<unsigned>(diff));
        if (mismatch_col < 0) mismatch_col = col;
        if (col != mismatch_col) return std::nullopt;  // inconsistent
        fixed[r] = cw;
        found = true;
      }
    }
    if (!found) return std::nullopt;
  }
  return fixed;
}

std::optional<std::vector<std::uint8_t>> Bec::delta3(
    std::span<const std::uint8_t> rows, std::span<const unsigned> diff_weight,
    unsigned k1, unsigned k2, BecStats* stats) const {
  if (stats != nullptr) ++stats->delta3;
  const std::uint8_t flip =
      static_cast<std::uint8_t>((1u << k1) | (1u << k2));
  std::vector<std::uint8_t> fixed(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (diff_weight[r] == 0) {
      fixed[r] = rows[r];
      continue;
    }
    const std::uint8_t candidate = static_cast<std::uint8_t>(rows[r] ^ flip);
    bool found = false;
    for (unsigned d = 0; d < 16 && !found; ++d) {
      if (book_[d] == candidate) {
        fixed[r] = candidate;
        found = true;
      }
    }
    if (!found) return std::nullopt;
  }
  return fixed;
}

std::vector<std::vector<std::uint8_t>> Bec::decode_cr1(
    std::span<const std::uint8_t> rows, BecStats* stats) const {
  std::vector<std::vector<std::uint8_t>> out;
  bool all_pass = true;
  for (std::uint8_t row : rows) {
    if (weight(row) % 2 != 0) {
      all_pass = false;
      break;
    }
  }
  if (all_pass) {
    push_unique(out, std::vector<std::uint8_t>(rows.begin(), rows.end()));
    return out;
  }

  // Repair with each of the 5 columns: rewrite the column so every row's
  // parity holds (Delta'). The received block itself fails parity, so only
  // the 5 BEC-fixed blocks are candidates (paper 6.4) — keeping the
  // packet-level combination count at 5^k for k corrupted blocks, which is
  // what the W = 125 budget is sized for.
  for (unsigned k = 0; k < n_cols_; ++k) {
    if (stats != nullptr) ++stats->delta_prime;
    std::vector<std::uint8_t> fixed(rows.begin(), rows.end());
    for (std::uint8_t& row : fixed) {
      const std::uint8_t rest = static_cast<std::uint8_t>(row & ~(1u << k));
      const unsigned parity = weight(rest) % 2;
      row = static_cast<std::uint8_t>(rest | (parity << k));
    }
    if (stats != nullptr) ++stats->candidate_blocks;
    push_unique(out, std::move(fixed));
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> Bec::decode_block(
    std::span<const std::uint8_t> rows, BecStats* stats) const {
  if (rows.size() != sf_) {
    throw std::invalid_argument("Bec::decode_block: need SF rows");
  }
  if (cr_ == 1) return decode_cr1(rows, stats);

  // Cleaned block Gamma and the difference classes.
  std::vector<std::uint8_t> gamma(sf_);
  std::vector<unsigned> dw(sf_);
  std::uint8_t xi = 0;
  bool any_diff = false;
  bool has_phi2 = false;
  for (unsigned r = 0; r < sf_; ++r) {
    gamma[r] = lora::nearest_codeword(rows[r], book_).codeword;
    const std::uint8_t diff = static_cast<std::uint8_t>(rows[r] ^ gamma[r]);
    dw[r] = weight(diff);
    if (dw[r] == 1) xi |= diff;
    if (dw[r] == 2) has_phi2 = true;
    if (dw[r] != 0) any_diff = true;
  }
  const unsigned xi_size = weight(xi);

  std::vector<std::vector<std::uint8_t>> out;
  push_unique(out, gamma);

  auto add = [&](std::optional<std::vector<std::uint8_t>> fixed) {
    if (fixed.has_value()) {
      if (stats != nullptr) ++stats->candidate_blocks;
      push_unique(out, std::move(*fixed));
    }
  };

  if (!any_diff) return out;  // no error

  if (cr_ == 2 || cr_ == 3) {
    const unsigned max_xi = cr_ == 2 ? 2 : 3;
    if (xi_size == 0) return out;           // no single-diff evidence
    if (cr_ == 3 && xi_size == 1) return out;  // one error column: Gamma is right
    if (xi_size > max_xi) {                 // too many error columns
      if (stats != nullptr) ++stats->blocks_no_repair;
      return out;
    }
    // Complete Xi with the companion, then repair with every subset of the
    // hypothesis size (1 column for CR2, 2 columns for CR3).
    std::uint8_t full = xi;
    if (xi_size == max_xi - 1) {
      const auto comps = companions(xi);
      if (!comps.empty()) full = static_cast<std::uint8_t>(xi | comps[0]);
    }
    std::vector<unsigned> cols;
    for (unsigned c = 0; c < n_cols_; ++c) {
      if (full & (1u << c)) cols.push_back(c);
    }
    if (cr_ == 2) {
      for (unsigned c : cols) {
        add(delta1(rows, static_cast<std::uint8_t>(1u << c), stats));
      }
    } else {
      for (std::size_t a = 0; a < cols.size(); ++a) {
        for (std::size_t b = a + 1; b < cols.size(); ++b) {
          add(delta1(rows,
                     static_cast<std::uint8_t>((1u << cols[a]) | (1u << cols[b])),
                     stats));
        }
      }
    }
    if (out.size() == 1 && stats != nullptr) ++stats->blocks_no_repair;
    return out;
  }

  // ---- CR 4 ----
  if (xi_size == 1 && !has_phi2) return out;  // single error column

  // 2-column errors (paper 6.7.1): possible only when |Xi| <= 2.
  if (xi_size <= 2) {
    std::vector<std::vector<std::uint8_t>> two_col;
    auto add2 = [&](std::optional<std::vector<std::uint8_t>> fixed) {
      if (fixed.has_value()) {
        if (stats != nullptr) ++stats->candidate_blocks;
        push_unique(two_col, std::move(*fixed));
      }
    };
    if (xi_size == 0 && has_phi2) {
      // Every phi2 row must point at the same companion group.
      std::set<std::uint8_t> group;
      bool consistent = true;
      bool first = true;
      for (unsigned r = 0; r < sf_ && consistent; ++r) {
        if (dw[r] != 2) continue;
        const std::uint8_t pair = static_cast<std::uint8_t>(rows[r] ^ gamma[r]);
        std::set<std::uint8_t> g{pair};
        for (std::uint8_t c : companions(pair)) g.insert(c);
        if (first) {
          group = g;
          first = false;
        } else if (g != group) {
          consistent = false;
        }
      }
      if (consistent && !group.empty()) {
        for (std::uint8_t pair : group) {
          const unsigned k1 =
              static_cast<unsigned>(std::countr_zero(static_cast<unsigned>(pair)));
          const unsigned k2 = static_cast<unsigned>(std::countr_zero(
              static_cast<unsigned>(pair & (pair - 1))));
          add2(delta3(rows, dw, k1, k2, stats));
        }
      }
    } else if (xi_size == 1) {
      const unsigned k1 =
          static_cast<unsigned>(std::countr_zero(static_cast<unsigned>(xi)));
      add2(delta2(rows, gamma, dw, k1, stats));
    } else if (xi_size == 2) {
      add2(delta1(rows, xi, stats));
    }
    if (!two_col.empty()) {
      for (auto& c : two_col) push_unique(out, std::move(c));
      return out;
    }
  }

  // 3-column errors (paper 6.7.2): possible only when 1 <= |Xi| <= 4.
  if (xi_size == 0 || xi_size > 4) {
    if (stats != nullptr) ++stats->blocks_no_repair;
    return out;
  }

  std::vector<unsigned> xi_cols;
  for (unsigned c = 0; c < n_cols_; ++c) {
    if (xi & (1u << c)) xi_cols.push_back(c);
  }

  auto try_all_triples = [&](std::uint8_t four_cols) {
    std::vector<unsigned> cols;
    for (unsigned c = 0; c < n_cols_; ++c) {
      if (four_cols & (1u << c)) cols.push_back(c);
    }
    for (std::size_t skip = 0; skip < cols.size(); ++skip) {
      std::uint8_t mask = 0;
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (i != skip) mask |= static_cast<std::uint8_t>(1u << cols[i]);
      }
      add(delta1(rows, mask, stats));
    }
  };

  if (xi_size == 1) {
    const unsigned k1 = xi_cols[0];
    const std::vector<unsigned> mismatch =
        delta2_mismatch_columns(rows, gamma, dw, k1);
    if (stats != nullptr) ++stats->delta2;
    if (mismatch.size() == 2) {
      std::uint8_t set = static_cast<std::uint8_t>(
          (1u << k1) | (1u << mismatch[0]) | (1u << mismatch[1]));
      const auto comps = companions(set);
      if (!comps.empty()) set |= comps[0];
      try_all_triples(set);
    } else if (mismatch.size() == 3) {
      const std::uint8_t set = static_cast<std::uint8_t>(
          (1u << k1) | (1u << mismatch[0]) | (1u << mismatch[1]) |
          (1u << mismatch[2]));
      try_all_triples(set);
    }
  } else if (xi_size == 2) {
    // Six Delta_1 attempts: Xi plus each other column.
    std::vector<unsigned> extras_ok;
    std::vector<std::vector<std::uint8_t>> fixes;
    for (unsigned c = 0; c < n_cols_; ++c) {
      if (xi & (1u << c)) continue;
      auto fixed = delta1(rows, static_cast<std::uint8_t>(xi | (1u << c)), stats);
      if (fixed.has_value()) {
        extras_ok.push_back(c);
        fixes.push_back(std::move(*fixed));
      }
    }
    for (auto& f : fixes) {
      if (stats != nullptr) ++stats->candidate_blocks;
      push_unique(out, std::move(f));
    }
    if (extras_ok.size() == 2) {
      // Xi may hold the companion: also test the two swapped hypotheses
      // (c3, c4, k1) and (c3, c4, k2).
      const std::uint8_t pair = static_cast<std::uint8_t>(
          (1u << extras_ok[0]) | (1u << extras_ok[1]));
      for (unsigned k : xi_cols) {
        add(delta1(rows, static_cast<std::uint8_t>(pair | (1u << k)), stats));
      }
    }
  } else if (xi_size == 3) {
    std::uint8_t set = xi;
    const auto comps = companions(xi);
    if (!comps.empty()) set |= comps[0];
    try_all_triples(set);
  } else {  // xi_size == 4
    try_all_triples(xi);
  }

  if (out.size() == 1 && stats != nullptr) ++stats->blocks_no_repair;
  return out;
}

std::size_t bec_w_budget(unsigned cr) { return cr == 1 ? 125 : 16; }

}  // namespace tnb::rx
