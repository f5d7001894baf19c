// The gr-lora-sdr wire format (lora::Coding::kWire): the wire coding
// table through the shared stages (whitening, CRC16, codebook, MSB-first
// interleaver, +1 Gray map, header), the full rx::FrameCodec encode ->
// decode identity over the SF x CR grid (explicit and implicit headers,
// LDRO), single-symbol error correction through the diagonal interleaver,
// and end-to-end decodes through Receiver / StreamingReceiver on
// synthesized IQ.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/frame_codec.hpp"
#include "core/receiver.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"
#include "sim/trace_builder.hpp"
#include "stream/streaming_receiver.hpp"

namespace {

using namespace tnb;
using lora::Coding;

const lora::CodingTable& wire() { return lora::coding_table(Coding::kWire); }

std::vector<std::uint8_t> whitening_sequence(std::size_t n) {
  std::vector<std::uint8_t> seq(n, 0);
  wire().whiten(seq);
  return seq;
}

void whiten(std::vector<std::uint8_t>& bytes) { wire().whiten(bytes); }

/// The CRC16 as the 16-bit value its two little-endian bytes carry.
std::uint16_t payload_crc16(std::span<const std::uint8_t> payload) {
  const auto b = wire().crc_bytes(payload);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

/// Reference gr-lora-sdr Hamming encoder: MSB-first d3 d2 d1 d0 p0 p1 p2
/// p3 truncated to 4+CR bits; CR 1 is the data plus overall parity.
std::uint8_t wire_encode(unsigned nibble, unsigned cr) {
  const unsigned n = nibble & 0x0F;
  const unsigned d0 = n & 1, d1 = (n >> 1) & 1, d2 = (n >> 2) & 1, d3 = (n >> 3) & 1;
  if (cr == 1) return static_cast<std::uint8_t>((n << 1) | (d0 ^ d1 ^ d2 ^ d3));
  const unsigned full8 = (n << 4) | ((d3 ^ d2 ^ d1) << 3) |
                         ((d2 ^ d1 ^ d0) << 2) | ((d3 ^ d2 ^ d0) << 1) |
                         (d3 ^ d1 ^ d0);
  return static_cast<std::uint8_t>(full8 >> (4 - cr));
}

std::uint8_t wire_data(std::uint8_t cw, unsigned cr) {
  return lora::codeword_data(wire(), cw, cr);
}

lora::NearestCodeword wire_decode(std::uint8_t row, unsigned cr) {
  return lora::nearest_codeword(row, lora::codebook(cr, Coding::kWire));
}

std::vector<std::uint32_t> wire_interleave(std::span<const std::uint8_t> rows,
                                           unsigned cw_len) {
  return lora::interleave_block(rows, cw_len - 4, wire().msb_first);
}

std::vector<std::uint8_t> wire_deinterleave(
    std::span<const std::uint32_t> symbols, unsigned rows, unsigned cw_len) {
  return lora::deinterleave_block(symbols, rows, cw_len - 4, wire().msb_first);
}

/// Header with the wire length field `len` (CRC16 excluded).
lora::Header wire_header(unsigned len, unsigned cr, bool crc) {
  return {static_cast<std::uint8_t>(len + (crc ? 2 : 0)),
          static_cast<std::uint8_t>(cr), crc};
}

// ---------------------------------------------------------------- whitening

TEST(WireWhitening, KnownPrefix) {
  // SX127x LFSR x^8+x^6+x^5+x^4+1, seed 0xFF: the canonical opening bytes.
  const std::vector<std::uint8_t> expect{0xFF, 0xFE, 0xFC, 0xF8,
                                         0xF0, 0xE1, 0xC2, 0x85};
  EXPECT_EQ(whitening_sequence(8), expect);
}

TEST(WireWhitening, Involution) {
  Rng rng(11);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const auto orig = data;
  whiten(data);
  EXPECT_NE(data, orig);  // 0xFF seed flips the first byte for sure
  whiten(data);
  EXPECT_EQ(data, orig);
}

// ------------------------------------------------------------------- CRC16

TEST(WireCrc16, LastTwoBytesMixedRaw) {
  // CRC over payload[0..n-2) is 0 for an empty prefix, so a 2-byte payload's
  // CRC is just the raw XOR quirk: p[n-2] << 8 ^ p[n-1].
  const std::vector<std::uint8_t> two{0x12, 0x34};
  EXPECT_EQ(payload_crc16(two), 0x1234);
}

TEST(WireCrc16, SensitiveToEveryByte) {
  std::vector<std::uint8_t> p{1, 2, 3, 4, 5, 6};
  const std::uint16_t base = payload_crc16(p);
  for (std::size_t i = 0; i < p.size(); ++i) {
    auto q = p;
    q[i] ^= 0x10;
    EXPECT_NE(payload_crc16(q), base) << "byte " << i;
  }
}

// ----------------------------------------------------------------- Hamming

TEST(WireHamming, RoundTripAllNibblesAllRates) {
  for (unsigned cr = 1; cr <= 4; ++cr) {
    for (unsigned n = 0; n < 16; ++n) {
      const std::uint8_t cw = wire_encode(static_cast<std::uint8_t>(n), cr);
      EXPECT_LT(cw, 1u << (4 + cr));
      EXPECT_EQ(wire_data(cw, cr), n);
      EXPECT_EQ(wire_decode(cw, cr).data, n);
      EXPECT_EQ(lora::codebook(cr, Coding::kWire)[n], cw);
    }
  }
}

TEST(WireHamming, Cr1IsEvenWeightCode) {
  for (unsigned n = 0; n < 16; ++n) {
    const unsigned w = static_cast<unsigned>(
        std::popcount(static_cast<unsigned>(wire_encode(n, 1))));
    EXPECT_EQ(w % 2, 0u) << "nibble " << n;
  }
}

TEST(WireHamming, SingleBitErrorsCorrectedAtCr3AndUp) {
  for (unsigned cr = 3; cr <= 4; ++cr) {
    for (unsigned n = 0; n < 16; ++n) {
      const std::uint8_t cw = wire_encode(static_cast<std::uint8_t>(n), cr);
      for (unsigned b = 0; b < 4 + cr; ++b) {
        EXPECT_EQ(wire_decode(static_cast<std::uint8_t>(cw ^ (1u << b)), cr).data,
                  n)
            << "cr=" << cr << " nibble=" << n << " bit=" << b;
      }
    }
  }
}

TEST(WireHamming, MinimumDistancePerRate) {
  // d_min 2/3/4 at CR 1-2/3/4: detection-only, single-error correction,
  // single-error correction + double detection.
  const unsigned expect_dmin[5] = {0, 2, 2, 3, 4};
  for (unsigned cr = 1; cr <= 4; ++cr) {
    unsigned dmin = 8;
    const auto& book = lora::codebook(cr, Coding::kWire);
    for (unsigned a = 0; a < 16; ++a) {
      for (unsigned b = a + 1; b < 16; ++b) {
        dmin = std::min(dmin, static_cast<unsigned>(std::popcount(
                                  static_cast<unsigned>(book[a] ^ book[b]))));
      }
    }
    EXPECT_EQ(dmin, expect_dmin[cr]) << "cr=" << cr;
  }
}

// -------------------------------------------------------------- interleaver

TEST(WireInterleave, RoundTrip) {
  Rng rng(3);
  for (unsigned sf_app = 5; sf_app <= 12; ++sf_app) {
    for (unsigned cr = 1; cr <= 4; ++cr) {
      const unsigned cwl = 4 + cr;
      std::vector<std::uint8_t> rows(sf_app);
      for (auto& r : rows) {
        r = static_cast<std::uint8_t>(rng.uniform_index(1u << cwl));
      }
      const auto symbols = wire_interleave(rows, cwl);
      ASSERT_EQ(symbols.size(), cwl);
      for (std::uint32_t s : symbols) EXPECT_LT(s, 1u << sf_app);
      EXPECT_EQ(wire_deinterleave(symbols, sf_app, cwl), rows);
    }
  }
}

TEST(WireInterleave, CorruptSymbolHitsOneBitPositionOfEveryRow) {
  // The diagonal interleaver preserves the one-symbol-one-column error
  // model rx::Bec is built on: symbol i carries bit (cwl-1-i) of every row.
  const unsigned sf_app = 8, cwl = 8;
  Rng rng(5);
  std::vector<std::uint8_t> rows(sf_app);
  for (auto& r : rows) r = static_cast<std::uint8_t>(rng.uniform_index(256));
  auto symbols = wire_interleave(rows, cwl);
  const unsigned victim = 3;
  symbols[victim] ^= 0xB7u & ((1u << sf_app) - 1u);
  const auto back = wire_deinterleave(symbols, sf_app, cwl);
  for (unsigned r = 0; r < sf_app; ++r) {
    const std::uint8_t diff = back[r] ^ rows[r];
    EXPECT_EQ(diff & ~static_cast<std::uint8_t>(1u << (cwl - 1 - victim)), 0)
        << "row " << r;
  }
}

// ------------------------------------------------------------ gray mapping

TEST(WireGray, ShiftRoundTrip) {
  for (unsigned sf : {5u, 7u, 10u, 12u}) {
    const std::uint32_t n_full = 1u << sf;
    for (std::uint32_t v = 0; v < n_full; ++v) {
      EXPECT_EQ(lora::value_for_bin(wire(), sf,
                                    lora::shift_for_value(wire(), sf, v, false),
                                    false),
                v);
    }
    if (sf < 7) continue;
    const std::uint32_t n_red = 1u << (sf - 2);
    for (std::uint32_t v = 0; v < n_red; ++v) {
      const std::uint32_t shift = lora::shift_for_value(wire(), sf, v, true);
      EXPECT_EQ(lora::value_for_bin(wire(), sf, shift, true), v);
      // The truncating /4 absorbs +1 and +2 bin errors on reduced blocks.
      EXPECT_EQ(lora::value_for_bin(wire(), sf, (shift + 1) & (n_full - 1), true), v);
      EXPECT_EQ(lora::value_for_bin(wire(), sf, (shift + 2) & (n_full - 1), true), v);
    }
  }
}

// ------------------------------------------------------------------ header

TEST(WireHeaderNibbles, RoundTrip) {
  for (unsigned len : {1u, 14u, 16u, 100u, 253u, 255u}) {
    for (unsigned cr = 1; cr <= 4; ++cr) {
      for (bool crc : {false, true}) {
        // Header::payload_len counts the CRC16: a 255-byte payload plus
        // CRC has no on-air length, so only the CRC-less one exists.
        if (crc && len > 253) continue;
        const lora::Header h = wire_header(len, cr, crc);
        const auto nibbles = wire().header_nibbles(h);
        EXPECT_EQ(nibbles[0] << 4 | nibbles[1], len);  // CRC16 excluded
        const auto parsed = wire().parse_header(nibbles);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, h);
      }
    }
  }
}

TEST(WireHeaderNibbles, ChecksumCatchesSingleNibbleCorruption) {
  const lora::Header h = wire_header(16, 2, true);
  const auto good = wire().header_nibbles(h);
  for (unsigned i = 0; i < 3; ++i) {
    for (unsigned bit = 0; bit < 4; ++bit) {
      auto bad = good;
      bad[i] ^= static_cast<std::uint8_t>(1u << bit);
      const auto parsed = wire().parse_header(bad);
      if (parsed.has_value()) {
        // A flip may still parse only if it lands on another valid header;
        // it must not parse back to the original fields.
        EXPECT_FALSE(parsed->payload_len == h.payload_len &&
                     parsed->cr == h.cr && parsed->has_crc == h.has_crc);
      }
    }
  }
}

TEST(WireHeaderNibbles, RejectsZeroLengthAndBadCr) {
  const lora::Header h = wire_header(0, 2, true);
  EXPECT_FALSE(wire().parse_header(wire().header_nibbles(h)).has_value());
  // CR 0 and CR >= 5 encode but must not parse.
  for (unsigned cr : {0u, 5u, 6u, 7u}) {
    const lora::Header b = wire_header(16, cr, true);
    EXPECT_FALSE(wire().parse_header(wire().header_nibbles(b)).has_value());
  }
}

// ------------------------------------------------------------- frame codec

/// Encode app bytes and decode them back through the codec alone (clean
/// channel: the demodulated bin equals the transmitted shift).
void codec_roundtrip(rx::CodecConfig cfg, std::size_t app_len,
                     std::uint64_t seed) {
  cfg.coding = Coding::kWire;
  const rx::FrameCodec codec(cfg);
  Rng rng(seed);
  std::vector<std::uint8_t> app(app_len);
  for (auto& b : app) b = static_cast<std::uint8_t>(rng.uniform_index(256));

  const auto shifts = codec.encode_shifts(app);
  ASSERT_EQ(shifts.size(), codec.frame_symbols(app.size()));
  for (std::uint32_t s : shifts) EXPECT_LT(s, 1u << cfg.params.sf);

  lora::Header h;
  if (cfg.implicit_header.has_value()) {
    ASSERT_EQ(codec.header_symbols(), 0u);
    const auto ih = codec.implicit_header();
    ASSERT_TRUE(ih.has_value());
    h = *ih;
  } else {
    ASSERT_EQ(codec.header_symbols(), 8u);
    const auto hdr = codec.decode_header(
        std::span<const std::uint32_t>(shifts).first(8), nullptr);
    ASSERT_TRUE(hdr.has_value());
    EXPECT_EQ(hdr->payload_len, app.size() + 2);  // on-air incl. CRC16
    EXPECT_EQ(hdr->cr, cfg.params.cr);
    EXPECT_TRUE(hdr->has_crc);
    h = *hdr;
  }
  EXPECT_EQ(codec.header_symbols() + codec.payload_symbols(h), shifts.size());

  const auto r = codec.decode_frame(shifts, h, rng, nullptr);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.payload, app);
  EXPECT_EQ(r.rescued_codewords, 0u);  // clean channel: defaults suffice
}

class WireCodecGrid
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(WireCodecGrid, ExplicitRoundTrip) {
  const auto [sf, cr] = GetParam();
  rx::CodecConfig cfg;
  cfg.params = lora::Params{.sf = sf, .cr = cr};
  codec_roundtrip(cfg, 14, sf * 10 + cr);
}

TEST_P(WireCodecGrid, ImplicitRoundTrip) {
  const auto [sf, cr] = GetParam();
  rx::CodecConfig cfg;
  cfg.params = lora::Params{.sf = sf, .cr = cr};
  cfg.implicit_header =
      rx::ImplicitHeader{16, static_cast<std::uint8_t>(cr)};  // 14 app + CRC16
  codec_roundtrip(cfg, 14, sf * 100 + cr);
}

TEST_P(WireCodecGrid, OddLengths) {
  const auto [sf, cr] = GetParam();
  rx::CodecConfig cfg;
  cfg.params = lora::Params{.sf = sf, .cr = cr};
  for (std::size_t len : {1u, 7u, 31u}) codec_roundtrip(cfg, len, len);
}

INSTANTIATE_TEST_SUITE_P(
    SfCrGrid, WireCodecGrid,
    ::testing::Combine(::testing::Values(5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(WireCodecFrame, LdroRoundTrip) {
  for (unsigned sf : {8u, 12u}) {
    rx::CodecConfig cfg;
    cfg.params = lora::Params{.sf = sf, .cr = 4, .ldro = true};
    codec_roundtrip(cfg, 14, sf);
  }
}

TEST(WireCodecFrame, NoBecRoundTrip) {
  rx::CodecConfig cfg;
  cfg.params = lora::Params{.sf = 8, .cr = 2};
  cfg.use_bec = false;
  codec_roundtrip(cfg, 14, 99);
}

TEST(WireCodecFrame, CorruptedBinRejectedOrCorrected) {
  // +1 on a reduced-rate block-0 bin is absorbed by the truncating Gray
  // mapping; a full bit flip in a CR 4/8 symbol is a single-bit codeword
  // error, corrected by the nearest-codeword decode.
  rx::CodecConfig cfg;
  cfg.params = lora::Params{.sf = 8, .cr = 4};
  cfg.coding = Coding::kWire;
  const rx::FrameCodec codec(cfg);
  Rng rng(21);
  std::vector<std::uint8_t> app(14);
  for (auto& b : app) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  auto shifts = codec.encode_shifts(app);

  shifts[2] = (shifts[2] + 1) & 0xFF;          // reduced block 0: absorbed
  shifts[10] ^= 1u << 3;                        // rest block: one bit flip
  const auto hdr = codec.decode_header(
      std::span<const std::uint32_t>(shifts).first(8), nullptr);
  ASSERT_TRUE(hdr.has_value());
  const auto r = codec.decode_frame(shifts, *hdr, rng, nullptr);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.payload, app);
}

TEST(WireCodecFrame, CrcArbitratesGarbage) {
  // A frame of random bins must not pass the CRC16 (totality + no false
  // positives on noise, within this seed).
  rx::CodecConfig cfg;
  cfg.params = lora::Params{.sf = 8, .cr = 2};
  cfg.coding = Coding::kWire;
  const rx::FrameCodec codec(cfg);
  Rng rng(31);
  lora::Header h{.payload_len = 16, .cr = 2, .has_crc = true};
  std::vector<std::uint32_t> bins(8 + codec.payload_symbols(h));
  for (auto& b : bins) b = static_cast<std::uint32_t>(rng.uniform_index(256));
  const auto r = codec.decode_frame(bins, h, rng, nullptr);
  EXPECT_FALSE(r.ok);
}

TEST(WireCodecFrame, PeekMatchesLayout) {
  rx::CodecConfig cfg;
  cfg.params = lora::Params{.sf = 9, .cr = 3};
  cfg.coding = Coding::kWire;
  const rx::FrameCodec codec(cfg);
  std::vector<std::uint8_t> app(23);
  std::iota(app.begin(), app.end(), 0);
  const auto shifts = codec.encode_shifts(app);
  const auto peeked = codec.peek_frame_symbols(
      std::span<const std::uint32_t>(shifts).first(8));
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, shifts.size());
}

// ------------------------------------------------------- wire-frame synthesis

TEST(WireModulatorTest, SampleCountMatchesFrameSymbols) {
  const lora::Params p{.sf = 7, .cr = 1};
  const lora::Modulator mod(p);
  const std::vector<std::uint8_t> app(14, 0xA5);
  const auto shifts = lora::encode_frame(Coding::kWire, p, app);
  EXPECT_EQ(shifts.size(), lora::frame_symbols(Coding::kWire, p, app.size()));
  const auto iq = mod.synthesize_shifts(shifts);
  EXPECT_EQ(iq.size(), mod.packet_samples(shifts.size()));
}

// --------------------------------------------------------------- end-to-end

sim::Trace wire_trace(const lora::Params& p, bool implicit, double load,
                      std::uint64_t seed) {
  sim::TraceOptions opt;
  opt.duration_s = 1.5;
  opt.load_pps = load;
  opt.nodes = {{1, 15.0, 500.0}, {2, 12.0, -800.0}, {3, 18.0, 1500.0}};
  opt.implicit_header = implicit;
  opt.coding = Coding::kWire;
  Rng rng(seed);
  return sim::build_trace(p, opt, rng);
}

TEST(WireEndToEnd, ReceiverDecodesWireFrames) {
  const lora::Params p{.sf = 8, .cr = 4};
  const sim::Trace trace = wire_trace(p, /*implicit=*/false, 4.0, 17);
  rx::ReceiverOptions ropt;
  ropt.coding = Coding::kWire;
  const rx::Receiver rxr(p, ropt);
  Rng rng(7);
  rx::ReceiverStats stats;
  const auto decoded = rxr.decode(trace.iq, rng, &stats);
  ASSERT_FALSE(trace.packets.empty());
  EXPECT_GE(decoded.size(), trace.packets.size() / 2);
  std::size_t matched = 0;
  for (const auto& d : decoded) {
    std::uint16_t node = 0, seq = 0;
    ASSERT_TRUE(sim::parse_app_payload(d.payload, node, seq));
    for (const auto& t : trace.packets) {
      if (t.node_id == node && t.seq == seq && t.app_payload == d.payload) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_EQ(matched, decoded.size());  // no false decodes
  EXPECT_EQ(stats.crc_ok, decoded.size());
}

TEST(WireEndToEnd, ReceiverDecodesImplicitWireFrames) {
  const lora::Params p{.sf = 7, .cr = 2};
  const sim::Trace trace = wire_trace(p, /*implicit=*/true, 3.0, 29);
  rx::ReceiverOptions ropt;
  ropt.coding = Coding::kWire;
  ropt.implicit_header = rx::ImplicitHeader{16, 2};
  const rx::Receiver rxr(p, ropt);
  Rng rng(7);
  const auto decoded = rxr.decode(trace.iq, rng);
  ASSERT_FALSE(trace.packets.empty());
  EXPECT_GE(decoded.size(), trace.packets.size() / 2);
  for (const auto& d : decoded) {
    std::uint16_t node = 0, seq = 0;
    EXPECT_TRUE(sim::parse_app_payload(d.payload, node, seq));
  }
}

TEST(WireEndToEnd, StreamingReceiverDecodesWireFrames) {
  const lora::Params p{.sf = 8, .cr = 4};
  const sim::Trace trace = wire_trace(p, /*implicit=*/false, 4.0, 17);
  rx::ReceiverOptions ropt;
  ropt.coding = Coding::kWire;
  stream::StreamingReceiver srx(p, ropt);
  std::size_t emitted = 0;
  srx.set_packet_callback([&](const sim::DecodedPacket& pkt) {
    std::uint16_t node = 0, seq = 0;
    EXPECT_TRUE(sim::parse_app_payload(pkt.payload, node, seq));
    ++emitted;
  });
  const std::span<const cfloat> iq(trace.iq);
  const std::size_t chunk = 16 * p.sps();
  for (std::size_t off = 0; off < iq.size(); off += chunk) {
    srx.push_chunk(iq.subspan(off, std::min(chunk, iq.size() - off)));
  }
  srx.finish();
  EXPECT_GE(emitted, trace.packets.size() / 2);
}

}  // namespace
