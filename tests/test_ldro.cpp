// Low Data Rate Optimization (LDRO): SF-2 bits per symbol, two ignored
// shift LSBs. Verifies the mode end to end and its robustness property.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "lora/demodulator.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::lora {
namespace {

TEST(Ldro, ValidationRules) {
  Params p{.sf = 7, .cr = 4, .ldro = true};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  Params ok{.sf = 11, .cr = 4, .ldro = true};
  ok.validate();
  EXPECT_EQ(ok.bits_per_symbol(), 9u);
}

TEST(Ldro, ShiftValueMappingQuantizes) {
  const CodingTable& t = coding_table(Coding::kPaper);
  for (std::uint32_t v = 0; v < (1u << 8); ++v) {
    const std::uint32_t h = shift_for_value(t, 10, v, true);
    EXPECT_EQ(h % 4, 0u);  // shifts are multiples of 4
    EXPECT_EQ(value_for_bin(t, 10, h, true), v);
    // +/-1 bin errors do not change the decoded value.
    EXPECT_EQ(value_for_bin(t, 10, (h + 1) % 1024, true), v);
    EXPECT_EQ(value_for_bin(t, 10, (h + 1023) % 1024, true), v);
  }
}

TEST(Ldro, FrameRoundTrip) {
  Params p{.sf = 11, .cr = 3, .ldro = true};
  Rng rng(1);
  std::vector<std::uint8_t> app(14);
  for (auto& b : app) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const auto symbols = encode_frame(Coding::kPaper, p, app);
  for (std::uint32_t s : symbols) {
    EXPECT_EQ(s % 4, 0u);  // 9 data bits per symbol: 2^11 bins / 4
    EXPECT_LT(s, 1u << 11);
  }

  const rx::FrameCodec codec({.params = p, .use_bec = false});
  const auto hdr = codec.decode_header(
      std::span<const std::uint32_t>(symbols).first(kHeaderSymbols), nullptr);
  ASSERT_TRUE(hdr.has_value());
  Rng dec_rng(1);
  const auto payload = codec.decode_frame(symbols, *hdr, dec_rng, nullptr);
  ASSERT_TRUE(payload.ok);
  EXPECT_EQ(payload.payload, app);
}

TEST(Ldro, ModemRoundTrip) {
  Params p{.sf = 10, .cr = 4, .bandwidth_hz = 125e3, .osf = 2, .ldro = true};
  Modulator mod(p);
  Demodulator demod(p);
  Workspace ws(p);
  Rng rng(2);
  std::vector<std::uint8_t> app(14, 0x3A);
  const auto symbols = encode_frame(Coding::kPaper, p, app);
  const IqBuffer pkt = mod.synthesize_shifts(symbols);
  const std::size_t start = static_cast<std::size_t>(12.25 * p.sps());
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    EXPECT_EQ(demod.demod_value(
                  std::span<const cfloat>(pkt).subspan(start + s * p.sps(),
                                                       p.sps()),
                  0.0, ws),
              value_for_bin(coding_table(Coding::kPaper), p.sf, symbols[s],
                            p.ldro));
  }
}

TEST(Ldro, EndToEndThroughReceiver) {
  Params p{.sf = 10, .cr = 4, .bandwidth_hz = 125e3, .osf = 2, .ldro = true};
  Rng rng(3);
  sim::TraceOptions opt;
  opt.duration_s = 3.0;
  opt.load_pps = 1.0;
  opt.nodes = {{1, 15.0, 2200.0}};
  const sim::Trace trace = sim::build_trace(p, opt, rng);
  rx::Receiver receiver(p);
  Rng rx_rng(4);
  const auto result = sim::evaluate(trace, receiver.decode(trace.iq, rx_rng));
  EXPECT_EQ(result.decoded_unique, result.transmitted);
}

TEST(Ldro, SurvivesCfoResidualThatBreaksNonLdro) {
  // A residual CFO of ~0.8 cycles shifts every peak by about one bin:
  // fatal without LDRO, absorbed with it.
  for (bool ldro : {false, true}) {
    Params p{.sf = 10, .cr = 4, .bandwidth_hz = 125e3, .osf = 2, .ldro = ldro};
    Modulator mod(p);
    Demodulator demod(p);
    Workspace ws(p);
    std::vector<std::uint8_t> app(14, 0x77);
    const auto symbols = encode_frame(Coding::kPaper, p, app);
    const IqBuffer pkt = mod.synthesize_shifts(symbols);
    const std::size_t start = static_cast<std::size_t>(12.25 * p.sps());
    int errors = 0;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      const std::uint32_t v = demod.demod_value(
          std::span<const cfloat>(pkt).subspan(start + s * p.sps(), p.sps()),
          -0.8, ws);  // 0.8 cycles of uncorrected CFO
      errors += (v != value_for_bin(coding_table(Coding::kPaper), p.sf,
                                    symbols[s], p.ldro));
    }
    if (ldro) {
      EXPECT_EQ(errors, 0) << "LDRO must absorb a one-bin offset";
    } else {
      EXPECT_GT(errors, static_cast<int>(symbols.size()) / 2);
    }
  }
}

}  // namespace
}  // namespace tnb::lora
