// tnb::wire — gr-lora-sdr wire-format primitives and the WireCodec frame
// chain: per-primitive round trips, the full encode -> decode identity over
// the SF x CR grid (explicit and implicit headers, LDRO), single-symbol
// error correction through the diagonal interleaver, and end-to-end decodes
// through Receiver / StreamingReceiver on synthesized IQ.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "sim/trace_builder.hpp"
#include "stream/streaming_receiver.hpp"
#include "wire/wire_codec.hpp"
#include "wire/wire_format.hpp"
#include "wire/wire_modulator.hpp"

namespace {

using namespace tnb;
using namespace tnb::wire;

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
      EXPECT_EQ(wire_codewords(cr)[n], cw);
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
    const auto& book = wire_codewords(cr);
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
      const auto symbols = wire_interleave(rows, sf_app, cwl);
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
  auto symbols = wire_interleave(rows, sf_app, cwl);
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
      EXPECT_EQ(wire_symbol_for_bin(wire_shift_for_symbol(v, sf, false), sf,
                                    false),
                v);
    }
    if (sf < 7) continue;
    const std::uint32_t n_red = 1u << (sf - 2);
    for (std::uint32_t v = 0; v < n_red; ++v) {
      const std::uint32_t shift = wire_shift_for_symbol(v, sf, true);
      EXPECT_EQ(wire_symbol_for_bin(shift, sf, true), v);
      // The truncating /4 absorbs +1 and +2 bin errors on reduced blocks.
      EXPECT_EQ(wire_symbol_for_bin((shift + 1) & (n_full - 1), sf, true), v);
      EXPECT_EQ(wire_symbol_for_bin((shift + 2) & (n_full - 1), sf, true), v);
    }
  }
}

// ------------------------------------------------------------------ header

TEST(WireHeaderNibbles, RoundTrip) {
  for (unsigned len : {1u, 14u, 16u, 100u, 255u}) {
    for (unsigned cr = 1; cr <= 4; ++cr) {
      for (bool crc : {false, true}) {
        const WireHeader h{static_cast<std::uint8_t>(len),
                           static_cast<std::uint8_t>(cr), crc};
        const auto nibbles = wire_header_nibbles(h);
        const auto parsed = parse_wire_header(nibbles);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->payload_len, len);
        EXPECT_EQ(parsed->cr, cr);
        EXPECT_EQ(parsed->has_crc, crc);
      }
    }
  }
}

TEST(WireHeaderNibbles, ChecksumCatchesSingleNibbleCorruption) {
  const WireHeader h{16, 2, true};
  const auto good = wire_header_nibbles(h);
  for (unsigned i = 0; i < 3; ++i) {
    for (unsigned bit = 0; bit < 4; ++bit) {
      auto bad = good;
      bad[i] ^= static_cast<std::uint8_t>(1u << bit);
      const auto parsed = parse_wire_header(bad);
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
  WireHeader h{0, 2, true};
  EXPECT_FALSE(parse_wire_header(wire_header_nibbles(h)).has_value());
  // CR 0 and CR >= 5 encode but must not parse.
  for (unsigned cr : {0u, 5u, 6u, 7u}) {
    WireHeader b{16, static_cast<std::uint8_t>(cr), true};
    EXPECT_FALSE(parse_wire_header(wire_header_nibbles(b)).has_value());
  }
}

// ------------------------------------------------------------- frame codec

/// Encode app bytes and decode them back through the codec alone (clean
/// channel: the demodulated bin equals the transmitted shift).
void codec_roundtrip(const rx::CodecConfig& cfg, std::size_t app_len,
                     std::uint64_t seed) {
  const WireCodec codec(cfg);
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
  const WireCodec codec(cfg);
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
  const WireCodec codec(cfg);
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
  const WireCodec codec(cfg);
  std::vector<std::uint8_t> app(23);
  std::iota(app.begin(), app.end(), 0);
  const auto shifts = codec.encode_shifts(app);
  const auto peeked = codec.peek_frame_symbols(
      std::span<const std::uint32_t>(shifts).first(8));
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, shifts.size());
}

// ------------------------------------------------------------- WireModulator

TEST(WireModulatorTest, SampleCountMatchesFrameSymbols) {
  const lora::Params p{.sf = 7, .cr = 1};
  const WireModulator wmod(p);
  const std::vector<std::uint8_t> app(14, 0xA5);
  EXPECT_EQ(wmod.shifts(app).size(), wmod.frame_symbols(app.size()));
  const auto iq = wmod.synthesize(app);
  EXPECT_EQ(iq.size(), wmod.packet_samples(app.size()));
}

// --------------------------------------------------------------- end-to-end

sim::Trace wire_trace(const lora::Params& p, bool implicit, double load,
                      std::uint64_t seed) {
  std::optional<rx::ImplicitHeader> ih;
  if (implicit) ih = rx::ImplicitHeader{16, static_cast<std::uint8_t>(p.cr)};
  const auto wmod = std::make_shared<WireModulator>(p, ih);
  sim::TraceOptions opt;
  opt.duration_s = 1.5;
  opt.load_pps = load;
  opt.nodes = {{1, 15.0, 500.0}, {2, 12.0, -800.0}, {3, 18.0, 1500.0}};
  opt.implicit_header = implicit;
  opt.shift_encoder = [wmod](std::span<const std::uint8_t> app) {
    return wmod->shifts(app);
  };
  Rng rng(seed);
  return sim::build_trace(p, opt, rng);
}

TEST(WireEndToEnd, ReceiverDecodesWireFrames) {
  const lora::Params p{.sf = 8, .cr = 4};
  const sim::Trace trace = wire_trace(p, /*implicit=*/false, 4.0, 17);
  rx::ReceiverOptions ropt;
  ropt.codec_factory = wire_codec_factory();
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
  ropt.codec_factory = wire_codec_factory();
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
  ropt.codec_factory = wire_codec_factory();
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
