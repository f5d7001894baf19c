#include "baselines/sic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "baselines/factories.hpp"
#include "channel/awgn.hpp"
#include "common/rng.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::base {
namespace {

lora::Params sic_params() {
  return lora::Params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 4};
}

TEST(Sic, DecodesCleanSinglePacket) {
  const lora::Params p = sic_params();
  Rng rng(1);
  sim::TraceOptions opt;
  opt.duration_s = 1.2;
  opt.load_pps = 2.0;
  opt.nodes = {{1, 20.0, 800.0}};
  const sim::Trace trace = sim::build_trace(p, opt, rng);
  SicDecoder sic(p);
  Rng rx_rng(2);
  const auto result = sim::evaluate(trace, sic.decode(trace.iq, rx_rng));
  EXPECT_EQ(result.decoded_unique, result.transmitted);
  EXPECT_EQ(result.false_packets, 0u);
}

TEST(Sic, CancellationRecoversWeakPacketUnderStrongOne) {
  // Two nodes 12 dB apart, heavily overlapping. Plain vanilla decodes only
  // the strong one; SIC cancels it and recovers the weak one.
  const lora::Params p = sic_params();
  Rng rng(3);
  sim::TraceOptions opt;
  opt.duration_s = 1.5;
  opt.load_pps = 10.0;
  opt.nodes = {{1, 24.0, 1500.0}, {2, 12.0, -2600.0}};
  const sim::Trace trace = sim::build_trace(p, opt, rng);

  Rng ra(4), rb(4);
  rx::Receiver vanilla = make_receiver(Scheme::kLoRaPhy, p);
  const auto v = sim::evaluate(trace, vanilla.decode(trace.iq, ra));
  SicDecoder sic(p);
  const auto s = sim::evaluate(trace, sic.decode(trace.iq, rb));

  EXPECT_GT(s.decoded_unique, v.decoded_unique)
      << "SIC must beat plain vanilla under power-separated collisions "
      << s.decoded_unique << " vs " << v.decoded_unique;
  EXPECT_EQ(s.false_packets, 0u);
}

TEST(Sic, CancelsInTheRoundReceiversFrameFormat) {
  // The same power-separated collisions in the wire format and in
  // implicit-header mode: the weak packets come out only when each strong
  // one is re-encoded in the frame format the rounds decode.
  const lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  for (const bool wire : {true, false}) {
    SCOPED_TRACE(wire ? "wire" : "implicit");
    Rng rng(5);
    sim::TraceOptions opt;
    opt.duration_s = 1.5;
    opt.load_pps = 10.0;
    opt.nodes = {{1, 24.0, 1500.0}, {2, 12.0, -2600.0}};
    opt.coding = wire ? lora::Coding::kWire : lora::Coding::kPaper;
    opt.implicit_header = !wire;
    const sim::Trace trace = sim::build_trace(p, opt, rng);

    std::optional<rx::ImplicitHeader> implicit;
    if (!wire) implicit = rx::ImplicitHeader{16, 4};
    const SicDecoder sic(p, implicit, opt.coding);
    Rng rx_rng(4);
    const auto result = sim::evaluate(trace, sic.decode(trace.iq, rx_rng));
    EXPECT_EQ(result.decoded_unique, result.transmitted);
    EXPECT_EQ(result.false_packets, 0u);
  }
}

TEST(Sic, StopsWhenResidualIsNoise) {
  const lora::Params p = sic_params();
  Rng rng(5);
  IqBuffer noise(60 * p.sps());
  for (auto& v : noise) v = rng.complex_normal(4.0);
  SicDecoder sic(p);
  EXPECT_TRUE(sic.decode(noise, rng).empty());
}

TEST(Sic, RoundLimitRespected) {
  // A power ladder: ten packets eight symbols apart, each 6 dB weaker than
  // the one before (50 dB down to -4 dB), its preamble under the stronger
  // one's payload. Each round uncovers exactly one more packet, so SIC
  // stops at its six-round cap with four packets left.
  const lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
  Rng rng(2);
  const lora::Modulator mod(p);
  const double sps = static_cast<double>(p.sps());
  sim::Trace trace;
  trace.params = p;
  std::vector<IqBuffer> waves;
  for (int k = 0; k < 10; ++k) {
    sim::TxPacketRecord rec;
    rec.node_id = static_cast<std::uint16_t>(k + 1);
    rec.app_payload = sim::make_app_payload(rec.node_id, 0, 14, rng);
    rec.start_sample = 1000.0 + k * 8.0 * sps + 0.37 * k;
    rec.cfo_hz = 1000.0 - 300.0 * k;
    rec.snr_db = 50.0 - 6.0 * k;
    lora::WaveformOptions w;
    w.frac_delay = rec.start_sample - std::floor(rec.start_sample);
    w.cfo_hz = rec.cfo_hz;
    w.amplitude = chan::amplitude_for_snr_db(rec.snr_db);
    waves.push_back(mod.synthesize_shifts(
        lora::encode_frame(lora::Coding::kPaper, p, rec.app_payload, false),
        w));
    rec.n_samples = waves.back().size();
    trace.packets.push_back(rec);
  }
  trace.iq.assign(static_cast<std::size_t>(trace.packets.back().start_sample) +
                      waves.back().size() + 4000,
                  cfloat{0.0f, 0.0f});
  for (std::size_t k = 0; k < waves.size(); ++k) {
    const auto s0 = static_cast<std::size_t>(trace.packets[k].start_sample);
    for (std::size_t i = 0; i < waves[k].size(); ++i) {
      trace.iq[s0 + i] += waves[k][i];
    }
  }
  trace.noise_power = chan::fullband_noise_power(p.osf);
  chan::add_awgn(trace.iq, trace.noise_power, rng);

  Rng rx_rng(7);
  const auto result =
      sim::evaluate(trace, SicDecoder(p).decode(trace.iq, rx_rng));
  EXPECT_EQ(result.transmitted, 10u);
  EXPECT_EQ(result.decoded_unique, 6u);
  EXPECT_EQ(result.false_packets, 0u);
}

}  // namespace
}  // namespace tnb::base
