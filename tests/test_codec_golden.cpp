// Pinned frame-codec behaviour on corrupted frames, for both frame formats.
//
// For the paper and the wire format, SF 7/8/10/12 (LDRO at SF 12) x CR 1-4,
// explicit and implicit header, BEC on and off, a seeded set of frames is
// encoded, 1-3 random symbols of every code block are overwritten with
// random bins, and the frame is decoded through the codec alone. The header
// result, `ok`, the payload, `rescued_codewords` and every BecStats field
// of each case are pinned line by line in tests/vectors/codec_golden.txt,
// so a refactor of the coding chain or the BEC arbitration that changes a
// single repair, candidate or CRC check fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/frame_codec.hpp"

namespace {

using namespace tnb;

struct Case {
  bool wire = false;
  unsigned sf = 7, cr = 1;
  bool ldro = false, implicit = false, bec = false;
  unsigned frame = 0;
};

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string s;
  char buf[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    s += buf;
  }
  return s.empty() ? "-" : s;
}

/// Encodes, corrupts and decodes one case; returns its pinned line.
std::string run_case(const Case& c) {
  const std::uint64_t seed = (c.wire ? 1'000'000u : 0u) + c.sf * 10'000u +
                             c.cr * 1'000u + (c.implicit ? 100u : 0u) +
                             c.frame;
  Rng rng(seed);
  const std::size_t app_len = 1 + rng.uniform_index(24);
  std::vector<std::uint8_t> app(app_len);
  for (auto& b : app) b = static_cast<std::uint8_t>(rng.uniform_index(256));

  rx::CodecConfig cfg;
  cfg.params = lora::Params{.sf = c.sf, .cr = c.cr, .ldro = c.ldro};
  cfg.use_bec = c.bec;
  cfg.coding = c.wire ? lora::Coding::kWire : lora::Coding::kPaper;
  if (c.implicit) {
    cfg.implicit_header = rx::ImplicitHeader{
        static_cast<std::uint8_t>(app_len + 2), static_cast<std::uint8_t>(c.cr)};
  }
  const rx::FrameCodec codec(cfg);
  std::vector<std::uint32_t> bins = codec.encode_shifts(app);

  // Block boundaries: an 8-symbol CR 4 first block (the explicit header
  // block, or the wire format's fixed first block), then 4+CR symbols each.
  const std::uint32_t n_bins = 1u << c.sf;
  const unsigned max_bad = 1 + c.frame % 3;
  std::size_t start = 0;
  while (start < bins.size()) {
    const std::size_t len = start == 0 && (c.wire || !c.implicit) ? 8 : 4 + c.cr;
    const std::size_t n_bad = 1 + rng.uniform_index(max_bad);
    for (std::size_t k = 0; k < n_bad; ++k) {
      bins[start + rng.uniform_index(len)] =
          static_cast<std::uint32_t>(rng.uniform_index(n_bins));
    }
    start += len;
  }

  rx::BecStats stats;
  std::optional<lora::Header> h = codec.implicit_header();
  if (!h.has_value()) {
    h = codec.decode_header(
        std::span<const std::uint32_t>(bins).first(codec.header_symbols()),
        &stats);
  }
  std::string line = std::string(c.wire ? "wire" : "paper") +
                     " sf=" + std::to_string(c.sf) +
                     " cr=" + std::to_string(c.cr) +
                     " ldro=" + std::to_string(c.ldro) +
                     " implicit=" + std::to_string(c.implicit) +
                     " bec=" + std::to_string(c.bec) +
                     " frame=" + std::to_string(c.frame) + " |";
  rx::FrameDecodeResult r;
  if (h.has_value()) {
    line += " hdr=" + std::to_string(h->payload_len) + "/" +
            std::to_string(h->cr) + "/" + std::to_string(h->has_crc);
    const std::size_t n = codec.header_symbols() + codec.payload_symbols(*h);
    if (n <= bins.size()) {
      Rng dec_rng(seed ^ 0x5EEDu);
      r = codec.decode_frame(std::span<const std::uint32_t>(bins).first(n), *h,
                              dec_rng, &stats);
    } else {
      line += " short";
    }
  } else {
    line += " hdr=fail";
  }
  line += " ok=" + std::to_string(r.ok) +
          " rescued=" + std::to_string(r.rescued_codewords) + " stats=" +
          std::to_string(stats.delta_prime) + "," +
          std::to_string(stats.delta1) + "," + std::to_string(stats.delta2) +
          "," + std::to_string(stats.delta3) + "," +
          std::to_string(stats.crc_checks) + "," +
          std::to_string(stats.blocks_no_repair) + "," +
          std::to_string(stats.candidate_blocks) +
          " payload=" + hex(r.payload);
  return line;
}

std::vector<std::string> all_lines() {
  std::vector<std::string> out;
  for (bool wire : {false, true}) {
    for (unsigned sf : {7u, 8u, 10u, 12u}) {
      for (unsigned cr = 1; cr <= 4; ++cr) {
        for (bool implicit : {false, true}) {
          for (bool bec : {false, true}) {
            for (unsigned frame = 0; frame < 3; ++frame) {
              out.push_back(run_case(
                  {wire, sf, cr, sf == 12, implicit, bec, frame}));
            }
          }
        }
      }
    }
  }
  return out;
}

TEST(CodecGolden, CorruptedFramesMatchPinnedDecodes) {
  std::ifstream in(TNB_CODEC_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "cannot open " << TNB_CODEC_GOLDEN_FILE;
  std::vector<std::string> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') pinned.push_back(line);
  }
  const std::vector<std::string> got = all_lines();
  ASSERT_EQ(got.size(), 384u);
  EXPECT_EQ(pinned.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(i < pinned.size() ? pinned[i] : std::string(), got[i])
        << "case " << i;
  }
}

// A span cut short of its frame (a packet running off the end of a trace
// segment) decodes to nothing, in either format, with or without BEC,
// down to spans shorter than the header.
TEST(CodecGolden, SpanShorterThanFrameIsNotOk) {
  for (const lora::Coding coding : {lora::Coding::kPaper, lora::Coding::kWire}) {
    for (bool implicit : {false, true}) {
      for (bool bec : {false, true}) {
        rx::CodecConfig cfg;
        cfg.params = lora::Params{.sf = 8, .cr = 4};
        cfg.use_bec = bec;
        cfg.coding = coding;
        if (implicit) cfg.implicit_header = rx::ImplicitHeader{16, 4};
        const rx::FrameCodec codec(cfg);
        const std::vector<std::uint32_t> bins =
            codec.encode_shifts(std::vector<std::uint8_t>(14, 0x5A));
        const lora::Header h{16, 4, true};
        for (std::size_t n = 0; n < bins.size(); ++n) {
          Rng rng(1);
          const auto span = std::span<const std::uint32_t>(bins).first(n);
          EXPECT_FALSE(codec.decode_frame(span, h, rng, nullptr).ok)
              << "n=" << n << " implicit=" << implicit << " bec=" << bec;
        }
        Rng rng(1);
        EXPECT_TRUE(codec.decode_frame(bins, h, rng, nullptr).ok);
      }
    }
  }
}

}  // namespace
