// Failure injection and hostile-input robustness for the full receiver:
// clipping, DC offset, CW interference, truncated packets, garbage input.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "lora/chirp.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::rx {
namespace {

lora::Params rp() {
  return lora::Params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 4};
}

sim::Trace simple_trace(std::uint64_t seed, double snr = 18.0) {
  Rng rng(seed);
  sim::TraceOptions opt;
  opt.duration_s = 1.2;
  opt.load_pps = 3.0;
  opt.nodes = {{1, snr, 1300.0}};
  return sim::build_trace(rp(), opt, rng);
}

TEST(Robustness, HardClippingStillDecodes) {
  // Saturated front-end: clip I/Q at ~1.5x the RMS. The chirp's information
  // is in the phase, so clipping mostly adds harmonics.
  sim::Trace trace = simple_trace(1);
  float rms = 0.0f;
  for (const cfloat& v : trace.iq) rms += std::norm(v);
  rms = std::sqrt(rms / static_cast<float>(trace.iq.size()));
  const float lim = 1.5f * rms;
  for (cfloat& v : trace.iq) {
    v = {std::clamp(v.real(), -lim, lim), std::clamp(v.imag(), -lim, lim)};
  }
  Receiver receiver(rp());
  Rng rng(2);
  const auto result = sim::evaluate(trace, receiver.decode(trace.iq, rng));
  EXPECT_GE(result.decoded_unique + 1, result.transmitted);  // allow 1 loss
}

TEST(Robustness, DcOffsetStillDecodes) {
  sim::Trace trace = simple_trace(3);
  for (cfloat& v : trace.iq) v += cfloat{0.5f, -0.3f};
  Receiver receiver(rp());
  Rng rng(4);
  const auto result = sim::evaluate(trace, receiver.decode(trace.iq, rng));
  EXPECT_EQ(result.decoded_unique, result.transmitted);
}

TEST(Robustness, CwInterferenceStillDecodes) {
  // A continuous-wave tone inside the band: dechirping spreads it across
  // all bins, raising the floor but leaving the peaks.
  sim::Trace trace = simple_trace(5);
  const double f = 0.11;  // cycles per sample
  for (std::size_t i = 0; i < trace.iq.size(); ++i) {
    const double ph = kTwoPi * f * static_cast<double>(i);
    trace.iq[i] += cfloat{static_cast<float>(2.0 * std::cos(ph)),
                          static_cast<float>(2.0 * std::sin(ph))};
  }
  Receiver receiver(rp());
  Rng rng(6);
  const auto result = sim::evaluate(trace, receiver.decode(trace.iq, rng));
  EXPECT_GE(result.decoded_unique + 1, result.transmitted);
}

TEST(Robustness, PacketCutAtTraceStartDoesNotCrash) {
  // A packet whose preamble starts before sample 0: half the preamble is
  // missing. The receiver must not crash and must not fabricate packets.
  const lora::Params p = rp();
  const lora::Modulator mod(p);
  Rng rng(7);
  std::vector<std::uint8_t> app(14, 0x21);
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  const IqBuffer pkt = mod.synthesize_shifts(symbols);
  IqBuffer trace(pkt.size(), cfloat{0.0f, 0.0f});
  // Copy only the second half of the preamble onward.
  const std::size_t cut = 6 * p.sps();
  for (std::size_t i = cut; i < pkt.size(); ++i) trace[i - cut] += pkt[i];
  chan::add_awgn(trace, 1.0, rng);
  Receiver receiver(p);
  const auto decoded = receiver.decode(trace, rng);
  for (const auto& d : decoded) {
    std::uint16_t node = 0, seq = 0;
    EXPECT_TRUE(sim::parse_app_payload(d.payload, node, seq));
  }
}

TEST(Robustness, PreambleOnlyTransmissionYieldsNothing) {
  // Endless upchirps with no header: detection may fire, header must fail,
  // and no packet may be emitted.
  const lora::Params p = rp();
  const auto up = lora::make_upchirp(p, 0);
  IqBuffer trace(60 * p.sps());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i] = up[i % up.size()];
  }
  Rng rng(8);
  chan::add_awgn(trace, 0.5, rng);
  Receiver receiver(p);
  EXPECT_TRUE(receiver.decode(trace, rng).empty());
}

TEST(Robustness, RandomGarbageYieldsNothing) {
  const lora::Params p = rp();
  Rng rng(9);
  IqBuffer trace(50 * p.sps());
  for (auto& v : trace) v = rng.complex_normal(25.0);  // loud noise
  Receiver receiver(p);
  ReceiverStats stats;
  EXPECT_TRUE(receiver.decode(trace, rng, &stats).empty());
}

TEST(Robustness, TraceShorterThanOneSymbol) {
  const lora::Params p = rp();
  Rng rng(10);
  IqBuffer tiny(p.sps() / 2, cfloat{1.0f, 0.0f});
  Receiver receiver(p);
  EXPECT_TRUE(receiver.decode(tiny, rng).empty());
  IqBuffer empty;
  EXPECT_TRUE(receiver.decode(empty, rng).empty());
}

TEST(Robustness, DeterministicAcrossRuns) {
  // Same trace + same seed => byte-identical decode output.
  const sim::Trace trace = simple_trace(11);
  Receiver receiver(rp());
  Rng ra(12), rb(12);
  const auto a = receiver.decode(trace.iq, ra);
  const auto b = receiver.decode(trace.iq, rb);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].payload, b[i].payload);
    EXPECT_EQ(a[i].start_sample, b[i].start_sample);
  }
}

TEST(Robustness, WeakPacketBelowDetectionFloorIsSilentlyLost) {
  // -15 dB SNR at SF 8 is below the detection floor: no crash, no output,
  // no false packets.
  const sim::Trace trace = simple_trace(13, -15.0);
  Receiver receiver(rp());
  Rng rng(14);
  const auto result = sim::evaluate(trace, receiver.decode(trace.iq, rng));
  EXPECT_EQ(result.false_packets, 0u);
}

}  // namespace
}  // namespace tnb::rx
