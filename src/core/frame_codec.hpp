// FrameCodec: the symbol-coding half of the receiver pipeline.
//
// The TnB pipeline separates *peak assignment* (detection, Thrive, masking,
// two-pass — which raw FFT bin each data symbol peaked at) from *frame
// coding* (how those bins map to bits). A FrameCodec owns the second half
// for one receiver: it consumes the raw peak bins the assigner produced
// and yields headers and payloads, and on the transmit side turns
// application bytes into raw chirp shifts for the modulator.
//
// One codec serves both frame formats: CodecConfig::coding selects the
// lora::CodingTable (lora/coding.hpp), and every stage below — the bin map,
// deinterleaving, nearest-codeword decoding, BEC repair of each block, and
// the W-budget / CRC arbitration across blocks — runs the same code for
// both. The codec takes raw bins, not symbol values, because the bin ->
// value map depends on the block: the wire format's first block runs at a
// reduced rate.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/bec.hpp"
#include "lora/coding.hpp"

namespace tnb::rx {

/// Implicit-header operation: the receiver knows the payload length and
/// coding rate a priori and packets carry no PHY header symbols (LoRa's
/// implicit header mode).
struct ImplicitHeader {
  std::uint8_t payload_len = 0;  ///< on-air bytes including CRC16
  std::uint8_t cr = 4;
};

/// Everything a codec needs to configure itself for one receiver.
struct CodecConfig {
  lora::Params params{};
  bool use_bec = true;  ///< BEC block repair vs the default per-row decoder
  std::optional<ImplicitHeader> implicit_header{};
  lora::Coding coding = lora::Coding::kPaper;
};

struct FrameDecodeResult {
  bool ok = false;
  std::vector<std::uint8_t> payload;  ///< application bytes, CRC16 stripped
  std::size_t rescued_codewords = 0;  ///< rows BEC decoded differently (and
                                      ///< correctly) than the default decoder
};

class FrameCodec {
 public:
  explicit FrameCodec(const CodecConfig& cfg);

  /// Leading data symbols that carry the PHY header (0 in implicit mode —
  /// then decode_header is never needed).
  std::size_t header_symbols() const;

  /// The configured implicit header as a lora::Header (payload_len includes
  /// the CRC16), or nullopt in explicit-header mode.
  std::optional<lora::Header> implicit_header() const;

  /// Decodes the header from the first header_symbols() raw peak bins:
  /// with BEC, the first candidate of the header block that parses wins.
  std::optional<lora::Header> decode_header(std::span<const std::uint32_t> bins,
                                            BecStats* stats) const;

  /// Data symbols following the header for a decoded/implicit header.
  std::size_t payload_symbols(const lora::Header& h) const;

  /// Decodes the payload from the raw bins of the WHOLE frame (header
  /// symbols included — the wire format's header block carries payload
  /// nibbles in its spare rows, so the payload is not a suffix slice).
  /// Every payload block yields candidates (BEC repairs, or the default
  /// decode alone); combinations of one candidate per block are tried
  /// against the CRC16 under the W budget — all of them when they number
  /// at most W, else the all-default one and W-1 drawn from `rng`.
  /// `w_budget` replaces the CR-dependent default (bec_w_budget). Not
  /// ok when `bins` is shorter than the frame.
  FrameDecodeResult decode_frame(std::span<const std::uint32_t> bins,
                                 const lora::Header& h, Rng& rng,
                                 BecStats* stats,
                                 std::size_t w_budget = 0) const;

  /// Streaming span refinement: given argmax bins of the first
  /// header_symbols() data symbols, the total frame length in data symbols
  /// if the header passes its checksum; nullopt otherwise (the caller keeps
  /// its conservative span). Uses the default decoder — refinement is
  /// advisory, never decode-bearing.
  std::optional<std::size_t> peek_frame_symbols(
      std::span<const std::uint32_t> header_bins) const;

  /// Transmit side: application bytes -> raw chirp shifts of the full frame
  /// (lora::encode_frame at the implicit header's coding rate, if any).
  std::vector<std::uint32_t> encode_shifts(
      std::span<const std::uint8_t> app_bytes) const;

  /// Total frame length in data symbols for an application payload size.
  std::size_t frame_symbols(std::size_t app_bytes) const;

 private:
  lora::FrameLayout layout(const lora::Header& h) const;
  /// Header from the header block's bins, with BEC or the default decoder.
  std::optional<lora::Header> read_header(std::span<const std::uint32_t> bins,
                                          bool use_bec, BecStats* stats) const;
  /// Transmit parameters: the implicit header's coding rate, if any.
  lora::Params tx_params() const;
  /// Codeword rows of one block of the frame's raw bins.
  std::vector<std::uint8_t> block_rows(std::span<const std::uint32_t> bins,
                                       const lora::CodeBlock& b) const;

  CodecConfig cfg_;
  const lora::CodingTable* table_;
};

}  // namespace tnb::rx
