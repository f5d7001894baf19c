#include "lora/coding.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "lora/gray.hpp"

namespace tnb::lora {
namespace {

constexpr unsigned bit(unsigned v, unsigned i) { return (v >> i) & 1u; }

// ------------------------------------------------------------ paper format

/// Paper Section 3 generator, LSB-first: data d1..d4 in bits 0-3, parity
/// p1..p4 in bits 4-7, the first CR parity bits sent; CR 1 sends the XOR
/// checksum of the data bits instead.
constexpr std::uint8_t paper_encode(unsigned n, unsigned cr) {
  const unsigned d1 = bit(n, 0), d2 = bit(n, 1), d3 = bit(n, 2), d4 = bit(n, 3);
  if (cr == 1) return static_cast<std::uint8_t>(n | ((d1 ^ d2 ^ d3 ^ d4) << 4));
  const unsigned full = n | ((d1 ^ d2 ^ d3) << 4) | ((d2 ^ d3 ^ d4) << 5) |
                        ((d1 ^ d2 ^ d4) << 6) | ((d1 ^ d3 ^ d4) << 7);
  return static_cast<std::uint8_t>(full & ((1u << (4 + cr)) - 1u));
}

/// PN9 sequence (x^9 + x^5 + 1, all-ones seed), generated bit by bit.
void paper_whiten(std::span<std::uint8_t> bytes) {
  std::uint16_t state = 0x1FF;
  for (std::uint8_t& b : bytes) {
    std::uint8_t seq = 0;
    for (int i = 0; i < 8; ++i) {
      seq |= static_cast<std::uint8_t>((state & 1u) << i);
      const std::uint16_t fb = (state ^ (state >> 4)) & 1u;
      state = static_cast<std::uint16_t>((state >> 1) | (fb << 8));
    }
    b ^= seq;
  }
}

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), big-endian.
std::array<std::uint8_t, 2> paper_crc(std::span<const std::uint8_t> app) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t b : app) {
    crc ^= static_cast<std::uint16_t>(b << 8);
    for (int i = 0; i < 8; ++i) {
      crc = static_cast<std::uint16_t>((crc & 0x8000) != 0 ? (crc << 1) ^ 0x1021
                                                           : crc << 1);
    }
  }
  return {static_cast<std::uint8_t>(crc >> 8), static_cast<std::uint8_t>(crc)};
}

/// 8-bit XOR fold of the header fields, each at its own rotation so a
/// change to any one field changes it.
std::uint8_t paper_header_checksum(const Header& h) {
  const unsigned len = h.payload_len;
  return static_cast<std::uint8_t>(0xA5 ^ len ^ (len << 3) ^ (len >> 5) ^
                                   (h.cr << 1) ^ (h.has_crc ? 0x80 : 0x00));
}

/// Length (low, high), CR | CRC flag << 3, checksum (low, high).
std::array<std::uint8_t, 5> paper_header_nibbles(const Header& h) {
  const std::uint8_t c = paper_header_checksum(h);
  return {static_cast<std::uint8_t>(h.payload_len & 0x0F),
          static_cast<std::uint8_t>(h.payload_len >> 4),
          static_cast<std::uint8_t>((h.cr & 0x07) | (h.has_crc ? 0x08 : 0x00)),
          static_cast<std::uint8_t>(c & 0x0F), static_cast<std::uint8_t>(c >> 4)};
}

/// Also rejects a nonzero padding row: corruption the checksum missed.
std::optional<Header> paper_parse_header(std::span<const std::uint8_t> n) {
  if (n.size() < 5) return std::nullopt;
  Header h;
  h.payload_len = static_cast<std::uint8_t>((n[0] & 0x0F) | ((n[1] & 0x0F) << 4));
  h.cr = n[2] & 0x07;
  h.has_crc = (n[2] & 0x08) != 0;
  if (h.cr < 1 || h.cr > 4) return std::nullopt;
  if (((n[3] & 0x0F) | ((n[4] & 0x0F) << 4)) != paper_header_checksum(h)) {
    return std::nullopt;
  }
  for (std::size_t i = 5; i < n.size(); ++i) {
    if (n[i] != 0) return std::nullopt;
  }
  return h;
}

// ------------------------------------------------------------- wire format

/// MSB-first d3 d2 d1 d0 p0 p1 p2 p3, truncated to 4+CR bits; CR 1 sends
/// d3..d0 and the overall parity.
constexpr std::uint8_t wire_encode(unsigned n, unsigned cr) {
  const unsigned d0 = bit(n, 0), d1 = bit(n, 1), d2 = bit(n, 2), d3 = bit(n, 3);
  if (cr == 1) return static_cast<std::uint8_t>((n << 1) | (d0 ^ d1 ^ d2 ^ d3));
  const unsigned full = (n << 4) | ((d3 ^ d2 ^ d1) << 3) | ((d2 ^ d1 ^ d0) << 2) |
                        ((d3 ^ d2 ^ d0) << 1) | (d3 ^ d1 ^ d0);
  return static_cast<std::uint8_t>(full >> (4 - cr));
}

/// SX127x LFSR x^8 + x^6 + x^5 + x^4 + 1, seed 0xFF, one step per byte.
void wire_whiten(std::span<std::uint8_t> bytes) {
  std::uint8_t s = 0xFF;
  for (std::uint8_t& b : bytes) {
    b ^= s;
    const unsigned fb = bit(s, 7) ^ bit(s, 5) ^ bit(s, 4) ^ bit(s, 3);
    s = static_cast<std::uint8_t>((s << 1) | fb);
  }
}

/// Poly 0x1021, init 0 over all but the last two bytes, then XORed with
/// those two raw (the SX127x quirk; under two bytes, the plain CRC);
/// little-endian.
std::array<std::uint8_t, 2> wire_crc(std::span<const std::uint8_t> app) {
  const auto step = [](std::uint16_t crc, std::uint8_t byte) {
    crc = static_cast<std::uint16_t>(crc ^ (byte << 8));
    for (int i = 0; i < 8; ++i) {
      crc = static_cast<std::uint16_t>((crc & 0x8000) != 0 ? (crc << 1) ^ 0x1021
                                                           : crc << 1);
    }
    return crc;
  };
  std::uint16_t crc = 0;
  const std::size_t n = app.size();
  for (std::size_t i = 0; i + (n < 2 ? 0 : 2) < n; ++i) crc = step(crc, app[i]);
  if (n >= 2) crc = static_cast<std::uint16_t>(crc ^ app[n - 1] ^ (app[n - 2] << 8));
  return {static_cast<std::uint8_t>(crc), static_cast<std::uint8_t>(crc >> 8)};
}

/// Length excluding the CRC16 (high, low), CR << 1 | CRC flag, then the
/// 5-bit checksum split c4 / c3c2c1c0.
std::array<std::uint8_t, 5> wire_header_nibbles(const Header& h) {
  const unsigned len = h.payload_len - (h.has_crc ? 2u : 0u);
  const unsigned n0 = (len >> 4) & 0x0F, n1 = len & 0x0F;
  const unsigned n2 = ((h.cr & 0x07) << 1) | (h.has_crc ? 1 : 0);
  const unsigned c4 = bit(n0, 3) ^ bit(n0, 2) ^ bit(n0, 1) ^ bit(n0, 0);
  const unsigned c3 = bit(n0, 3) ^ bit(n1, 3) ^ bit(n1, 2) ^ bit(n1, 1) ^ bit(n2, 0);
  const unsigned c2 = bit(n0, 2) ^ bit(n1, 3) ^ bit(n1, 0) ^ bit(n2, 3) ^ bit(n2, 1);
  const unsigned c1 = bit(n0, 1) ^ bit(n1, 2) ^ bit(n1, 0) ^ bit(n2, 2) ^
                      bit(n2, 1) ^ bit(n2, 0);
  const unsigned c0 = bit(n0, 0) ^ bit(n1, 1) ^ bit(n2, 3) ^ bit(n2, 2) ^
                      bit(n2, 1) ^ bit(n2, 0);
  return {static_cast<std::uint8_t>(n0), static_cast<std::uint8_t>(n1),
          static_cast<std::uint8_t>(n2), static_cast<std::uint8_t>(c4),
          static_cast<std::uint8_t>((c3 << 3) | (c2 << 2) | (c1 << 1) | c0)};
}

/// Also rejects a zero length and a length whose CRC16 would overflow
/// Header::payload_len.
std::optional<Header> wire_parse_header(std::span<const std::uint8_t> n) {
  if (n.size() < 5) return std::nullopt;
  const unsigned len = ((n[0] & 0x0F) << 4) | (n[1] & 0x0F);
  Header h;
  h.cr = static_cast<std::uint8_t>((n[2] >> 1) & 0x07);
  h.has_crc = (n[2] & 1) != 0;
  const unsigned on_air = len + (h.has_crc ? 2u : 0u);
  if (h.cr < 1 || h.cr > 4 || len < 1 || on_air > 255) return std::nullopt;
  h.payload_len = static_cast<std::uint8_t>(on_air);
  const auto expect = wire_header_nibbles(h);
  if ((n[3] & 0x01) != expect[3] || (n[4] & 0x0F) != expect[4]) {
    return std::nullopt;
  }
  return h;
}

template <std::uint8_t (*Encode)(unsigned, unsigned)>
constexpr std::array<Codebook, 5> make_codebooks() {
  std::array<Codebook, 5> books{};
  for (unsigned cr = 1; cr <= 4; ++cr) {
    for (unsigned d = 0; d < 16; ++d) books[cr][d] = Encode(d, cr);
  }
  return books;
}

constexpr CodingTable kPaperTable{
    make_codebooks<paper_encode>(),
    /*msb_first=*/false,
    /*bin_offset=*/0,
    /*reduced_bin_offset=*/2,
    /*reduced_first_block=*/false,
    /*payload_in_first_block=*/false,
    /*crc_always=*/true,
    /*whiten_crc=*/true,
    /*counts_default_crc=*/false,
    paper_whiten,
    paper_crc,
    paper_header_nibbles,
    paper_parse_header};

constexpr CodingTable kWireTable{
    make_codebooks<wire_encode>(),
    /*msb_first=*/true,
    /*bin_offset=*/~0u,  // -1 mod 2^SF
    /*reduced_bin_offset=*/~0u,
    /*reduced_first_block=*/true,
    /*payload_in_first_block=*/true,
    /*crc_always=*/false,
    /*whiten_crc=*/false,
    /*counts_default_crc=*/true,
    wire_whiten,
    wire_crc,
    wire_header_nibbles,
    wire_parse_header};

/// The first block: kHeaderSymbols symbols at CR 4.
CodeBlock first_block(const CodingTable& t, const Params& p,
                      bool explicit_header) {
  CodeBlock b;
  b.reduced = p.ldro || (t.reduced_first_block && p.sf >= 7);
  b.rows = b.reduced ? p.sf - 2 : p.sf;
  b.header_rows = explicit_header ? 5 : 0;
  b.payload = t.payload_in_first_block;
  return b;
}

/// The header of a transmitted frame: the CRC16 is always appended.
Header tx_header(const Params& p, std::size_t app_bytes) {
  if (app_bytes > 253) throw std::invalid_argument("payload over 253 bytes");
  return {static_cast<std::uint8_t>(app_bytes + 2),
          static_cast<std::uint8_t>(p.cr), true};
}

}  // namespace

const CodingTable& coding_table(Coding c) {
  return c == Coding::kWire ? kWireTable : kPaperTable;
}

const Codebook& codebook(unsigned cr, Coding c) {
  if (cr < 1 || cr > 4) throw std::invalid_argument("codebook: CR must be 1..4");
  return coding_table(c).codebooks[cr];
}

NearestCodeword nearest_codeword(std::uint8_t row, const Codebook& book) {
  NearestCodeword best;
  best.distance = 9;
  for (unsigned d = 0; d < 16; ++d) {
    const unsigned dist =
        static_cast<unsigned>(std::popcount(static_cast<unsigned>(row ^ book[d])));
    if (dist < best.distance) {
      best = {book[d], static_cast<std::uint8_t>(d), dist, true};
    } else if (dist == best.distance) {
      best.unique = false;
    }
  }
  return best;
}

std::vector<std::uint32_t> interleave_block(std::span<const std::uint8_t> rows,
                                            unsigned cr, bool msb_first) {
  const unsigned n = static_cast<unsigned>(rows.size());
  const unsigned cols = 4 + cr;
  std::vector<std::uint32_t> symbols(cols, 0);
  for (unsigned c = 0; c < cols; ++c) {
    const unsigned b = msb_first ? cols - 1 - c : c;
    for (unsigned r = 0; r < n; ++r) {
      symbols[c] |= static_cast<std::uint32_t>(bit(rows[(r + c) % n], b)) << r;
    }
  }
  return symbols;
}

std::vector<std::uint8_t> deinterleave_block(
    std::span<const std::uint32_t> symbols, unsigned rows, unsigned cr,
    bool msb_first) {
  const unsigned cols = 4 + cr;
  if (symbols.size() != cols) {
    throw std::invalid_argument("deinterleave_block: need 4+CR symbols");
  }
  std::vector<std::uint8_t> out(rows, 0);
  for (unsigned c = 0; c < cols; ++c) {
    const unsigned b = msb_first ? cols - 1 - c : c;
    for (unsigned r = 0; r < rows; ++r) {
      out[(r + c) % rows] |= static_cast<std::uint8_t>(bit(symbols[c], r) << b);
    }
  }
  return out;
}

std::uint32_t value_for_bin(const CodingTable& t, unsigned sf,
                            std::uint32_t bin, bool reduced) {
  const std::uint32_t x =
      (bin + (reduced ? t.reduced_bin_offset : t.bin_offset)) & ((1u << sf) - 1u);
  return gray_encode(reduced ? x >> 2 : x);
}

std::uint32_t shift_for_value(const CodingTable& t, unsigned sf,
                              std::uint32_t v, bool reduced) {
  return ((gray_decode(v) << (reduced ? 2 : 0)) - t.bin_offset) &
         ((1u << sf) - 1u);
}

FrameLayout frame_layout(const CodingTable& t, const Params& p,
                         const Header& h, bool explicit_header) {
  FrameLayout l;
  std::size_t nibbles = 2 * static_cast<std::size_t>(h.payload_len);
  if (explicit_header || t.payload_in_first_block) {
    const CodeBlock b = first_block(t, p, explicit_header);
    if (b.payload) nibbles -= std::min<std::size_t>(nibbles, b.rows - b.header_rows);
    l.blocks.push_back(b);
    l.symbols = kHeaderSymbols;
  }
  const unsigned rows = p.bits_per_symbol();
  for (std::size_t i = 0; i < (nibbles + rows - 1) / rows; ++i) {
    l.blocks.push_back({l.symbols, h.cr, rows, p.ldro, 0, true});
    l.symbols += 4 + h.cr;
  }
  return l;
}

std::vector<std::uint32_t> encode_frame(Coding c, const Params& p,
                                        std::span<const std::uint8_t> app,
                                        bool implicit_header) {
  p.validate();
  const CodingTable& t = coding_table(c);
  const Header h = tx_header(p, app.size());

  std::vector<std::uint8_t> bytes(app.begin(), app.end());
  const auto crc = t.crc_bytes(app);
  bytes.insert(bytes.end(), crc.begin(), crc.end());
  t.whiten(std::span(bytes).first(t.whiten_crc ? bytes.size() : app.size()));
  std::vector<std::uint8_t> nibbles;
  nibbles.reserve(2 * bytes.size());
  for (std::uint8_t b : bytes) {
    nibbles.push_back(b & 0x0F);
    nibbles.push_back(static_cast<std::uint8_t>(b >> 4));
  }

  const auto header = t.header_nibbles(h);
  const FrameLayout l = frame_layout(t, p, h, !implicit_header);
  std::vector<std::uint32_t> shifts;
  shifts.reserve(l.symbols);
  std::size_t next = 0;
  std::vector<std::uint8_t> rows;
  for (const CodeBlock& b : l.blocks) {
    rows.assign(b.rows, 0);
    for (unsigned r = 0; r < b.rows; ++r) {
      std::uint8_t nib = 0;
      if (r < b.header_rows) {
        nib = header[r];
      } else if (b.payload && next < nibbles.size()) {
        nib = nibbles[next++];
      }
      rows[r] = t.codebooks[b.cr][nib];
    }
    for (std::uint32_t v : interleave_block(rows, b.cr, t.msb_first)) {
      shifts.push_back(shift_for_value(t, p.sf, v, b.reduced));
    }
  }
  return shifts;
}

std::size_t frame_symbols(Coding c, const Params& p, std::size_t app_bytes,
                          bool implicit_header) {
  return frame_layout(coding_table(c), p, tx_header(p, app_bytes),
                      !implicit_header)
      .symbols;
}

}  // namespace tnb::lora
