// Pinned ADC-quantizer reference vectors: tests/vectors/impair_vectors.txt
// is produced by the independent Python implementation in
// gen_impair_vectors.py, so impair::Quantizer and the generator can only
// agree by implementing the same conventions (half-even rounding, rail
// clipping, NaN -> 0, double-precision reconstruction cast to float32).
// Each record is checked bit-exactly, including the int16 the trace writer
// stores at its default scale — the quantize -> write_trace_i16 ->
// read_trace_i16 interaction that makes full_scale=32 reconstruction
// levels survive the int16 grid losslessly at bits <= 12.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "impair/impairment.hpp"
#include "sim/trace_io.hpp"

namespace {

using namespace tnb;

struct Case {
  float in = 0.0f;
  float out = 0.0f;
  bool clip = false;
  std::int16_t i16 = 0;
};

struct Config {
  unsigned bits = 0;
  double full_scale = 0.0;
  std::vector<Case> cases;
};

float parse_f32_hex(const std::string& hex) {
  std::uint32_t bits = 0;
  // Little-endian byte order: first hex pair is the lowest-address byte.
  for (int b = 3; b >= 0; --b) {
    bits = (bits << 8) |
           std::stoul(hex.substr(2 * static_cast<std::size_t>(b), 2),
                      nullptr, 16);
  }
  return std::bit_cast<float>(bits);
}

std::vector<Config> load_vectors(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<Config> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("config ", 0) == 0) {
      Config c;
      EXPECT_EQ(2, std::sscanf(line.c_str(), "config bits=%u full_scale=%lf",
                               &c.bits, &c.full_scale))
          << line;
      out.push_back(c);
    } else if (line.rfind("case ", 0) == 0) {
      char in_hex[16] = {0}, out_hex[16] = {0};
      int clip = 0, i16 = 0;
      EXPECT_EQ(4, std::sscanf(line.c_str(),
                               "case in=%15s out=%15s clip=%d i16=%d",
                               in_hex, out_hex, &clip, &i16))
          << line;
      Case k;
      k.in = parse_f32_hex(in_hex);
      k.out = parse_f32_hex(out_hex);
      k.clip = clip != 0;
      k.i16 = static_cast<std::int16_t>(i16);
      out.back().cases.push_back(k);
    }
  }
  return out;
}

std::uint32_t bits_of(float f) { return std::bit_cast<std::uint32_t>(f); }

TEST(ImpairGolden, QuantizerMatchesReference) {
  const auto configs = load_vectors(TNB_IMPAIR_VECTOR_FILE);
  ASSERT_GE(configs.size(), 4u);
  const lora::Params params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3,
                            .osf = 4};
  for (const Config& c : configs) {
    SCOPED_TRACE("bits=" + std::to_string(c.bits) +
                 " full_scale=" + std::to_string(c.full_scale));
    ASSERT_GE(c.cases.size(), 20u);
    impair::ImpairmentConfig cfg;
    cfg.kind = impair::Kind::kQuantize;
    cfg.bits = c.bits;
    cfg.full_scale = c.full_scale;
    const auto q = impair::make_impairment(cfg, params);
    IqBuffer buf;
    std::size_t expect_clipped = 0;
    for (const Case& k : c.cases) {
      buf.emplace_back(k.in, k.in);
      if (k.clip) ++expect_clipped;
    }
    Rng rng(1);
    q->process(buf, rng);
    for (std::size_t i = 0; i < c.cases.size(); ++i) {
      SCOPED_TRACE("case " + std::to_string(i));
      EXPECT_EQ(bits_of(buf[i].real()), bits_of(c.cases[i].out));
      EXPECT_EQ(bits_of(buf[i].imag()), bits_of(c.cases[i].out));
    }
    EXPECT_EQ(q->clip_stats().clipped, expect_clipped);
    EXPECT_EQ(q->clip_stats().total, c.cases.size());

    // The pinned int16 column: what write_trace_i16 stores at its default
    // scale of 1024, via a real write -> raw-read round trip.
    const std::string path =
        ::testing::TempDir() + "impair_golden_" + std::to_string(c.bits) +
        "_" + std::to_string(static_cast<int>(c.full_scale)) + ".bin";
    sim::write_trace_i16(path, buf);
    std::ifstream raw(path, std::ios::binary);
    ASSERT_TRUE(raw.good());
    for (std::size_t i = 0; i < c.cases.size(); ++i) {
      SCOPED_TRACE("case " + std::to_string(i));
      std::int16_t pair[2] = {0, 0};
      raw.read(reinterpret_cast<char*>(pair), sizeof pair);
      ASSERT_TRUE(raw.good());
      EXPECT_EQ(pair[0], c.cases[i].i16);
      EXPECT_EQ(pair[1], c.cases[i].i16);
    }
    std::remove(path.c_str());
  }
}

// At bits <= 12 and the default full_scale=32, every reconstruction level
// lands exactly on the int16 grid at scale 1024, so a write -> read round
// trip through the trace format returns the quantized samples bit-exactly.
TEST(ImpairGolden, ReconstructionSurvivesTraceFormat) {
  const auto configs = load_vectors(TNB_IMPAIR_VECTOR_FILE);
  for (const Config& c : configs) {
    if (c.full_scale != 32.0 || c.bits > 12) continue;
    SCOPED_TRACE("bits=" + std::to_string(c.bits));
    IqBuffer buf;
    for (const Case& k : c.cases) {
      if (std::abs(k.out) * 1024.0 > 32767.0) continue;  // beyond i16 rails
      // Zeros are skipped: the negated imag component makes a -0.0, and
      // the int16 grid has only one zero to read back.
      if (k.out == 0.0f) continue;
      buf.emplace_back(k.out, -k.out);
    }
    const std::string path = ::testing::TempDir() + "impair_golden_rt_" +
                             std::to_string(c.bits) + ".bin";
    sim::write_trace_i16(path, buf);
    const IqBuffer back = sim::read_trace_i16(path);
    std::remove(path.c_str());
    ASSERT_EQ(back.size(), buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
      EXPECT_EQ(bits_of(back[i].real()), bits_of(buf[i].real())) << i;
      EXPECT_EQ(bits_of(back[i].imag()), bits_of(buf[i].imag())) << i;
    }
  }
}

}  // namespace
