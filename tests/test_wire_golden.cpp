// Pinned wire-format reference vectors: tests/vectors/wire_vectors.txt is
// produced by the independent Python implementation in gen_wire_vectors.py,
// so the codec's wire table and the generator can only agree by
// implementing the same gr-lora-sdr conventions. Each record is checked
// both ways — encode_shifts
// must reproduce the pinned shifts bit-exactly, and decoding the pinned
// shifts must recover the pinned payload bit-exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/frame_codec.hpp"

namespace {

using namespace tnb;

struct Vector {
  unsigned sf = 0, cr = 0;
  bool ldro = false, implicit = false, has_crc = true;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint32_t> shifts;
};

std::vector<Vector> load_vectors(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<Vector> out;
  std::string line;
  Vector v;
  int fields = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("sf=", 0) == 0) {
      v = Vector{};
      fields = 1;
      unsigned ldro = 0, implicit = 0, has_crc = 1;
      std::sscanf(line.c_str(), "sf=%u cr=%u ldro=%u implicit=%u has_crc=%u",
                  &v.sf, &v.cr, &ldro, &implicit, &has_crc);
      v.ldro = ldro != 0;
      v.implicit = implicit != 0;
      v.has_crc = has_crc != 0;
    } else if (line.rfind("payload=", 0) == 0) {
      const std::string hex = line.substr(8);
      for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        v.payload.push_back(static_cast<std::uint8_t>(
            std::stoul(hex.substr(i, 2), nullptr, 16)));
      }
      ++fields;
    } else if (line.rfind("shifts=", 0) == 0) {
      std::stringstream ss(line.substr(7));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        v.shifts.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
      }
      if (++fields == 3) out.push_back(v);
    }
  }
  return out;
}

rx::CodecConfig config_for(const Vector& v) {
  rx::CodecConfig cfg;
  cfg.params = lora::Params{.sf = v.sf, .cr = v.cr, .ldro = v.ldro};
  cfg.coding = lora::Coding::kWire;
  if (v.implicit) {
    cfg.implicit_header = rx::ImplicitHeader{
        static_cast<std::uint8_t>(v.payload.size() + 2),
        static_cast<std::uint8_t>(v.cr)};
  }
  return cfg;
}

TEST(WireGolden, EncodeMatchesReference) {
  const auto vectors = load_vectors(TNB_WIRE_VECTOR_FILE);
  ASSERT_GE(vectors.size(), 10u);
  for (const auto& v : vectors) {
    SCOPED_TRACE("sf=" + std::to_string(v.sf) + " cr=" + std::to_string(v.cr) +
                 (v.implicit ? " implicit" : "") + (v.ldro ? " ldro" : ""));
    const rx::FrameCodec codec(config_for(v));
    EXPECT_EQ(codec.encode_shifts(v.payload), v.shifts);
  }
}

TEST(WireGolden, DecodeMatchesReference) {
  const auto vectors = load_vectors(TNB_WIRE_VECTOR_FILE);
  ASSERT_GE(vectors.size(), 10u);
  for (const auto& v : vectors) {
    SCOPED_TRACE("sf=" + std::to_string(v.sf) + " cr=" + std::to_string(v.cr) +
                 (v.implicit ? " implicit" : "") + (v.ldro ? " ldro" : ""));
    const rx::FrameCodec codec(config_for(v));
    lora::Header h;
    if (v.implicit) {
      const auto ih = codec.implicit_header();
      ASSERT_TRUE(ih.has_value());
      h = *ih;
    } else {
      const auto hdr = codec.decode_header(
          std::span<const std::uint32_t>(v.shifts).first(8), nullptr);
      ASSERT_TRUE(hdr.has_value());
      EXPECT_EQ(hdr->payload_len, v.payload.size() + 2);
      EXPECT_EQ(hdr->cr, v.cr);
      h = *hdr;
    }
    ASSERT_EQ(codec.header_symbols() + codec.payload_symbols(h),
              v.shifts.size());
    Rng rng(1);
    const auto r = codec.decode_frame(v.shifts, h, rng, nullptr);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.payload, v.payload);
  }
}

}  // namespace
