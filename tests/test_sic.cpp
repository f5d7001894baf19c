#include "baselines/sic.hpp"

#include <gtest/gtest.h>

#include "baselines/factories.hpp"
#include "common/rng.hpp"
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

    SicOptions sopt;
    sopt.vanilla.coding = opt.coding;
    if (!wire) sopt.vanilla.implicit_header = rx::ImplicitHeader{16, 4};
    Rng rx_rng(4);
    const auto result =
        sim::evaluate(trace, SicDecoder(p, sopt).decode(trace.iq, rx_rng));
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
  const lora::Params p = sic_params();
  SicOptions opt;
  opt.max_rounds = 1;
  Rng rng(6);
  sim::TraceOptions topt;
  topt.duration_s = 1.5;
  topt.load_pps = 10.0;
  topt.nodes = {{1, 24.0, 1500.0}, {2, 12.0, -2600.0}};
  const sim::Trace trace = sim::build_trace(p, topt, rng);
  SicDecoder one_round(p, opt);
  Rng ra(7), rb(7);
  const auto r1 = sim::evaluate(trace, one_round.decode(trace.iq, ra));
  SicDecoder full(p);
  const auto rf = sim::evaluate(trace, full.decode(trace.iq, rb));
  EXPECT_LE(r1.decoded_unique, rf.decoded_unique);
}

}  // namespace
}  // namespace tnb::base
