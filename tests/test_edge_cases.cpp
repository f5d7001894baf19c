// Edge-of-envelope coverage: extreme payload sizes, smallest/largest SF,
// slow-fading end-to-end, and frame arithmetic corners.
#include <gtest/gtest.h>

#include "channel/fading.hpp"
#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "lora/demodulator.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"

namespace tnb {
namespace {

class PayloadSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSize, FrameRoundTripAnySize) {
  const std::size_t bytes = GetParam();
  lora::Params p{.sf = 9, .cr = 2, .bandwidth_hz = 125e3, .osf = 1};
  Rng rng(bytes);
  std::vector<std::uint8_t> app(bytes);
  for (auto& b : app) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  const rx::FrameCodec codec({.params = p, .use_bec = false});
  const auto hdr = codec.decode_header(
      std::span<const std::uint32_t>(symbols).first(lora::kHeaderSymbols),
      nullptr);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->payload_len, bytes + 2);
  Rng dec_rng(1);
  const auto payload = codec.decode_frame(symbols, *hdr, dec_rng, nullptr);
  ASSERT_TRUE(payload.ok);
  EXPECT_EQ(payload.payload, app);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSize,
                         ::testing::Values(1u, 2u, 15u, 16u, 64u, 128u, 253u));

TEST(EdgeCases, Sf6SmallestFrame) {
  lora::Params p{.sf = 6, .cr = 4, .bandwidth_hz = 125e3, .osf = 1};
  std::vector<std::uint8_t> app{0xAA};
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  // Header block (8) + ceil(6 nibbles / 6) * 8.
  EXPECT_EQ(symbols.size(), lora::frame_symbols(lora::Coding::kPaper, p, 1));
  for (std::uint32_t s : symbols) EXPECT_LT(s, 64u);
}

TEST(EdgeCases, Sf12ModemRoundTrip) {
  lora::Params p{.sf = 12, .cr = 1, .bandwidth_hz = 125e3, .osf = 1};
  lora::Modulator mod(p);
  lora::Demodulator demod(p);
  lora::Workspace ws(p);
  std::vector<std::uint8_t> app(14, 0xC3);
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  const IqBuffer pkt = mod.synthesize_shifts(symbols);
  const std::size_t start = static_cast<std::size_t>(12.25 * p.sps());
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    EXPECT_EQ(demod.demod_value(
                  std::span<const cfloat>(pkt).subspan(start + s * p.sps(),
                                                       p.sps()),
                  0.0, ws),
              lora::value_for_bin(lora::coding_table(lora::Coding::kPaper),
                                  p.sf, symbols[s], p.ldro));
  }
}

TEST(EdgeCases, SlowFadingEndToEnd) {
  // Gentle amplitude fluctuation (the paper's Fig. 6 behaviour): the
  // history cost must track it, not fight it.
  lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 4};
  chan::SlowFlatFadingChannel fading(0.3, 0.01);
  Rng rng(5);
  sim::TraceOptions opt;
  opt.duration_s = 2.0;
  opt.load_pps = 6.0;
  opt.nodes = {{1, 18.0, 900.0}, {2, 14.0, -2100.0}};
  opt.channel = &fading;
  const sim::Trace trace = sim::build_trace(p, opt, rng);
  rx::Receiver receiver(p);
  Rng rx_rng(6);
  const auto result = sim::evaluate(trace, receiver.decode(trace.iq, rx_rng));
  EXPECT_GE(result.prr, 0.7) << result.decoded_unique << "/" << result.transmitted;
}

TEST(EdgeCases, MinimumOsfOne) {
  lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 1};
  Rng rng(7);
  sim::TraceOptions opt;
  opt.duration_s = 1.0;
  opt.load_pps = 2.0;
  opt.nodes = {{1, 20.0, 400.0}};
  const sim::Trace trace = sim::build_trace(p, opt, rng);
  rx::Receiver receiver(p);
  Rng rx_rng(8);
  const auto result = sim::evaluate(trace, receiver.decode(trace.iq, rx_rng));
  EXPECT_EQ(result.decoded_unique, result.transmitted);
}

TEST(EdgeCases, NumSymbolsMonotoneInPayload) {
  lora::Params p{.sf = 10, .cr = 3};
  std::size_t prev = 0;
  for (std::size_t bytes = 1; bytes <= 64; ++bytes) {
    const std::size_t n = lora::frame_symbols(lora::Coding::kPaper, p, bytes,
                                              /*implicit_header=*/true);
    EXPECT_GE(n, prev);
    EXPECT_EQ(n % p.codeword_len(), 0u);
    prev = n;
  }
}

}  // namespace
}  // namespace tnb
