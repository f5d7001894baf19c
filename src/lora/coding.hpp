// Frame coding for both frame formats: application bytes <-> chirp shifts.
//
// A LoRa frame is a run of code blocks. A block is a (rows) x (4+CR) bit
// matrix: row r is one Hamming codeword, and on-air symbol c carries one
// codeword bit of every row, rotated diagonally down the rows (paper
// Fig. 2). One corrupted symbol therefore corrupts one column of a block,
// which is the error model BEC (core/bec.hpp) is built on. Two frame
// formats share that structure and differ only in the constants of a
// CodingTable and its format-specific functions (whitening, CRC16, and the
// header's serialize/parse pair):
//
//   * Coding::kPaper, the paper's frame format: codewords LSB-first (data
//     in bits 0-3), plain Gray mapping (LDRO rounds a bin to the nearest
//     multiple of 4), PN9 whitening over payload and CRC, CRC-16/CCITT-
//     FALSE appended big-endian, and an 8-symbol CR 4 header block whose
//     spare rows are zero.
//   * Coding::kWire, the gr-lora-sdr wire format real transmitters emit
//     (SNIPPETS.md 1-3): codewords MSB-first (data in the top four bits),
//     Gray mapping with a +1 shift offset, a first block of 8 CR 4 symbols
//     at SF-2 rows from SF 7 on whose spare rows carry payload (in implicit
//     mode too), the SX127x whitening LFSR over the payload only, and the
//     SX127x CRC16 appended little-endian.
//
// Everything else exists once: the bin <-> value map, the interleaver, the
// nearest-codeword scan, the frame layout and the encoder. The decoder,
// with BEC repair, is rx::FrameCodec (core/frame_codec.hpp).
//
// Header::payload_len counts on-air bytes including the CRC16 in both
// formats; the wire format's header field excludes it, and its header
// functions convert.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lora/params.hpp"

namespace tnb::lora {

enum class Coding { kPaper, kWire };

struct Header {
  std::uint8_t payload_len = 0;  ///< on-air payload bytes, including CRC16
  std::uint8_t cr = 4;           ///< coding rate of the payload blocks
  bool has_crc = true;

  friend bool operator==(const Header&, const Header&) = default;
};

/// The 16 codewords of one coding rate, indexed by data nibble.
using Codebook = std::array<std::uint8_t, 16>;

/// Everything that differs between the two frame formats.
struct CodingTable {
  /// codebooks[cr]: the (4+cr)-bit codewords at coding rate cr (1..4).
  std::array<Codebook, 5> codebooks;
  /// Row bit order. false: symbol c of a block carries codeword bit c and
  /// the data nibble is bits 0-3. true: symbol c carries bit 3+CR-c and the
  /// data nibble is the top four bits.
  bool msb_first;
  /// Added to a peak bin (mod 2^SF) before the Gray map, on full-rate and
  /// on reduced-rate (SF-2 rows) blocks; the transmitter subtracts
  /// bin_offset.
  std::uint32_t bin_offset;
  std::uint32_t reduced_bin_offset;
  /// The first block runs at SF-2 rows from SF 7 on, not only under LDRO.
  bool reduced_first_block;
  /// The first block (8 symbols at CR 4) exists in implicit-header mode
  /// too, and its rows after the header carry payload. false: it is the
  /// explicit header alone, padded with zero rows.
  bool payload_in_first_block;
  /// Every payload carries a CRC16, whatever the header's flag says.
  bool crc_always;
  /// Whitening covers the CRC16 bytes too.
  bool whiten_crc;
  /// BecStats::crc_checks also counts the one CRC check of a decode
  /// without BEC (otherwise it counts BEC arbitration checks only).
  bool counts_default_crc;
  /// XORs `bytes` with the whitening sequence (an involution).
  void (*whiten)(std::span<std::uint8_t> bytes);
  /// CRC16 of the application bytes, as its two on-air bytes in order.
  std::array<std::uint8_t, 2> (*crc_bytes)(std::span<const std::uint8_t> app);
  /// The 5 header nibbles leading the first block.
  std::array<std::uint8_t, 5> (*header_nibbles)(const Header& h);
  /// Parses the data nibbles of every first-block row (header first);
  /// nullopt when the checksum or a field check fails.
  std::optional<Header> (*parse_header)(std::span<const std::uint8_t> nibbles);
};

const CodingTable& coding_table(Coding c);

/// The codebook of coding rate `cr`; throws std::invalid_argument unless
/// 1 <= cr <= 4.
const Codebook& codebook(unsigned cr, Coding c = Coding::kPaper);

/// Data nibble of a codeword of coding rate `cr`.
inline std::uint8_t codeword_data(const CodingTable& t, std::uint8_t cw,
                                  unsigned cr) {
  return static_cast<std::uint8_t>((t.msb_first ? cw >> cr : cw) & 0x0F);
}

/// Nearest-codeword decoding of one received row.
struct NearestCodeword {
  std::uint8_t codeword = 0;  ///< closest codeword
  std::uint8_t data = 0;      ///< its data nibble (its codebook index)
  unsigned distance = 0;      ///< Hamming distance from the row
  bool unique = true;         ///< false if another codeword ties
};

/// The default decoder: snaps a row to the nearest codeword of `book`.
/// Ties go to the smallest data nibble (a deterministic stand-in for the
/// paper's "arbitrary" choice).
NearestCodeword nearest_codeword(std::uint8_t row, const Codebook& book);

/// Diagonal interleave of one block: rows.size() codewords of 4+cr bits ->
/// 4+cr symbol values of rows.size() bits. Symbol c bit r is codeword
/// (r+c) mod rows, at bit c (bit 3+cr-c when `msb_first`).
std::vector<std::uint32_t> interleave_block(std::span<const std::uint8_t> rows,
                                            unsigned cr, bool msb_first);

/// Inverse of interleave_block: 4+cr symbol values -> `rows` codewords.
std::vector<std::uint8_t> deinterleave_block(
    std::span<const std::uint32_t> symbols, unsigned rows, unsigned cr,
    bool msb_first);

/// Symbol value of a demodulated peak bin:
/// gray_encode(((bin + offset) mod 2^SF) >> (reduced ? 2 : 0)).
std::uint32_t value_for_bin(const CodingTable& t, unsigned sf,
                            std::uint32_t bin, bool reduced);

/// Chirp shift of a symbol value (inverse of value_for_bin).
std::uint32_t shift_for_value(const CodingTable& t, unsigned sf,
                              std::uint32_t v, bool reduced);

/// One code block of a frame.
struct CodeBlock {
  std::size_t first = 0;     ///< index of its first data symbol
  unsigned cr = 4;           ///< it spans 4+cr symbols
  unsigned rows = 0;         ///< codewords: SF, or SF-2 at reduced rate
  bool reduced = false;      ///< the two LSBs of every shift are unused
  unsigned header_rows = 0;  ///< leading rows holding the header nibbles
  bool payload = true;       ///< the rows after the header carry payload
};

struct FrameLayout {
  std::vector<CodeBlock> blocks;
  std::size_t symbols = 0;  ///< data symbols of the frame
};

/// Block layout of a frame carrying `h`. In explicit mode the first block
/// holds the header (kHeaderSymbols symbols at CR 4); payload nibbles (2
/// per on-air byte, low nibble first) fill the payload rows in order, and
/// the last block is zero-padded.
FrameLayout frame_layout(const CodingTable& t, const Params& p,
                         const Header& h, bool explicit_header);

/// Transmit side: application bytes -> raw chirp shifts of the full frame
/// (header unless `implicit_header`, CRC16 appended, coding rate p.cr).
/// Throws std::invalid_argument above 253 application bytes.
std::vector<std::uint32_t> encode_frame(Coding c, const Params& p,
                                        std::span<const std::uint8_t> app,
                                        bool implicit_header = false);

/// Data symbols of the frame encode_frame builds for `app_bytes` bytes
/// (at most 253).
std::size_t frame_symbols(Coding c, const Params& p, std::size_t app_bytes,
                          bool implicit_header = false);

}  // namespace tnb::lora
