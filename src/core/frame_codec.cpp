#include "core/frame_codec.hpp"

#include <algorithm>

namespace tnb::rx {

FrameCodec::FrameCodec(const CodecConfig& cfg)
    : cfg_(cfg), table_(&lora::coding_table(cfg.coding)) {
  cfg_.params.validate();
}

std::size_t FrameCodec::header_symbols() const {
  return cfg_.implicit_header.has_value() ? 0 : lora::kHeaderSymbols;
}

std::optional<lora::Header> FrameCodec::implicit_header() const {
  if (!cfg_.implicit_header.has_value()) return std::nullopt;
  return lora::Header{cfg_.implicit_header->payload_len,
                      cfg_.implicit_header->cr, true};
}

lora::FrameLayout FrameCodec::layout(const lora::Header& h) const {
  return lora::frame_layout(*table_, cfg_.params, h,
                            !cfg_.implicit_header.has_value());
}

lora::Params FrameCodec::tx_params() const {
  lora::Params p = cfg_.params;
  if (cfg_.implicit_header.has_value()) p.cr = cfg_.implicit_header->cr;
  return p;
}

std::vector<std::uint8_t> FrameCodec::block_rows(
    std::span<const std::uint32_t> bins, const lora::CodeBlock& b) const {
  std::vector<std::uint32_t> values(4 + b.cr);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = lora::value_for_bin(*table_, cfg_.params.sf, bins[b.first + i],
                                    b.reduced);
  }
  return lora::deinterleave_block(values, b.rows, b.cr, table_->msb_first);
}

std::optional<lora::Header> FrameCodec::decode_header(
    std::span<const std::uint32_t> bins, BecStats* stats) const {
  return read_header(bins, cfg_.use_bec, stats);
}

std::optional<lora::Header> FrameCodec::read_header(
    std::span<const std::uint32_t> bins, bool use_bec, BecStats* stats) const {
  if (bins.size() < lora::kHeaderSymbols) return std::nullopt;
  // The header block's layout does not depend on the header it carries.
  const lora::CodeBlock b =
      lora::frame_layout(*table_, cfg_.params, {}, true).blocks.front();
  const std::vector<std::uint8_t> rows = block_rows(bins, b);
  std::vector<std::uint8_t> nibbles(rows.size());
  if (!use_bec) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      nibbles[r] = lora::nearest_codeword(rows[r], table_->codebooks[4]).data;
    }
    return table_->parse_header(nibbles);
  }
  for (const auto& cand : Bec(b.rows, 4, cfg_.coding).decode_block(rows, stats)) {
    for (std::size_t r = 0; r < cand.size(); ++r) {
      nibbles[r] = lora::codeword_data(*table_, cand[r], 4);
    }
    if (auto h = table_->parse_header(nibbles); h.has_value()) return h;
  }
  return std::nullopt;
}

std::size_t FrameCodec::payload_symbols(const lora::Header& h) const {
  return layout(h).symbols - header_symbols();
}

FrameDecodeResult FrameCodec::decode_frame(std::span<const std::uint32_t> bins,
                                           const lora::Header& h, Rng& rng,
                                           BecStats* stats,
                                           std::size_t w_budget) const {
  FrameDecodeResult result;
  const lora::FrameLayout l = layout(h);
  if (bins.size() < l.symbols) return result;

  // Candidate decodings of every payload-carrying block (BEC repairs, or
  // the default decode alone), and the default data nibbles each row would
  // get, for rescued-codeword accounting.
  struct BlockCandidates {
    const lora::CodeBlock* block;
    std::vector<std::vector<std::uint8_t>> rows;
    std::vector<std::uint8_t> defaults;
  };
  std::vector<BlockCandidates> blocks;
  for (const lora::CodeBlock& b : l.blocks) {
    if (!b.payload) continue;
    const std::vector<std::uint8_t> rows = block_rows(bins, b);
    BlockCandidates c{&b, {}, std::vector<std::uint8_t>(rows.size())};
    std::vector<std::uint8_t> gamma(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto n = lora::nearest_codeword(rows[r], table_->codebooks[b.cr]);
      gamma[r] = n.codeword;
      c.defaults[r] = n.data;
    }
    if (cfg_.use_bec) {
      c.rows = Bec(b.rows, b.cr, cfg_.coding).decode_block(rows, stats);
    } else {
      c.rows.push_back(std::move(gamma));
    }
    blocks.push_back(std::move(c));
  }

  // On-air bytes of one candidate combination: payload nibbles in row
  // order, low nibble first, dewhitened; then the CRC16 check.
  const std::size_t n_bytes = h.payload_len;
  const bool has_crc = table_->crc_always || h.has_crc;
  const std::size_t app_len = has_crc ? n_bytes - std::min<std::size_t>(n_bytes, 2)
                                      : n_bytes;
  BecStats* crc_stats =
      cfg_.use_bec || table_->counts_default_crc ? stats : nullptr;
  auto try_combo = [&](std::span<const std::size_t> combo) -> bool {
    std::vector<std::uint8_t> bytes(n_bytes, 0);
    std::size_t nib = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const auto& rows = blocks[b].rows[combo[b]];
      for (std::size_t r = blocks[b].block->header_rows;
           r < rows.size() && nib < 2 * n_bytes; ++r, ++nib) {
        const std::uint8_t d =
            lora::codeword_data(*table_, rows[r], blocks[b].block->cr);
        bytes[nib / 2] |= static_cast<std::uint8_t>(nib % 2 == 0 ? d : d << 4);
      }
    }
    table_->whiten(std::span(bytes).first(table_->whiten_crc ? n_bytes : app_len));
    if (has_crc) {
      if (crc_stats != nullptr) ++crc_stats->crc_checks;
      if (n_bytes < 3) return false;
      const auto crc = table_->crc_bytes(std::span(bytes).first(app_len));
      if (crc[0] != bytes[app_len] || crc[1] != bytes[app_len + 1]) return false;
    }
    result.ok = true;
    bytes.resize(app_len);
    result.payload = std::move(bytes);
    result.rescued_codewords = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const auto& rows = blocks[b].rows[combo[b]];
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (lora::codeword_data(*table_, rows[r], blocks[b].block->cr) !=
            blocks[b].defaults[r]) {
          ++result.rescued_codewords;
        }
      }
    }
    return true;
  };

  std::vector<std::size_t> combo(blocks.size(), 0);
  if (!has_crc) {
    // Nothing to arbitrate with: take the default decode as-is.
    try_combo(combo);
    return result;
  }
  std::size_t total = 1;
  bool overflow = false;
  for (const auto& c : blocks) {
    if (total > 1'000'000 / std::max<std::size_t>(c.rows.size(), 1)) {
      overflow = true;
      break;
    }
    total *= c.rows.size();
  }
  const std::size_t w = w_budget != 0 ? w_budget : bec_w_budget(h.cr);
  if (!overflow && total <= w) {
    // Enumerate every combination, starting with all-default.
    for (std::size_t it = 0; it < total; ++it) {
      if (try_combo(combo)) return result;
      for (std::size_t b = 0; b < combo.size(); ++b) {
        if (++combo[b] < blocks[b].rows.size()) break;
        combo[b] = 0;
      }
    }
    return result;
  }
  // Sample W combinations, the all-default one first.
  if (try_combo(combo)) return result;
  for (std::size_t it = 1; it < w; ++it) {
    for (std::size_t b = 0; b < combo.size(); ++b) {
      combo[b] = rng.uniform_index(blocks[b].rows.size());
    }
    if (try_combo(combo)) return result;
  }
  return result;
}

std::optional<std::size_t> FrameCodec::peek_frame_symbols(
    std::span<const std::uint32_t> header_bins) const {
  if (header_symbols() == 0) return std::nullopt;
  const std::optional<lora::Header> h = read_header(header_bins, false, nullptr);
  if (!h.has_value()) return std::nullopt;
  return layout(*h).symbols;
}

std::vector<std::uint32_t> FrameCodec::encode_shifts(
    std::span<const std::uint8_t> app_bytes) const {
  return lora::encode_frame(cfg_.coding, tx_params(), app_bytes,
                            cfg_.implicit_header.has_value());
}

std::size_t FrameCodec::frame_symbols(std::size_t app_bytes) const {
  return lora::frame_symbols(cfg_.coding, tx_params(), app_bytes,
                             cfg_.implicit_header.has_value());
}

}  // namespace tnb::rx
