#include "core/detect.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.hpp"
#include "common/rng.hpp"
#include "core/frac_sync.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"

namespace tnb::rx {
namespace {

lora::Params test_params() {
  return lora::Params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 4};
}

/// Builds a trace with one packet at the given placement.
IqBuffer one_packet_trace(const lora::Params& p, double start, double cfo_hz,
                          double amplitude, double noise_power, Rng& rng,
                          std::size_t trace_len = 0) {
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(14, 0x5A);
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  lora::WaveformOptions wopt;
  wopt.cfo_hz = cfo_hz;
  wopt.amplitude = amplitude;
  const double start_floor = std::floor(start);
  wopt.frac_delay = start - start_floor;
  const IqBuffer pkt = mod.synthesize_shifts(symbols, wopt);

  if (trace_len == 0) trace_len = pkt.size() + 8 * p.sps();
  IqBuffer trace(trace_len, cfloat{0.0f, 0.0f});
  const std::size_t s0 = static_cast<std::size_t>(start_floor);
  for (std::size_t i = 0; i < pkt.size() && s0 + i < trace.size(); ++i) {
    trace[s0 + i] += pkt[i];
  }
  chan::add_awgn(trace, noise_power, rng);
  return trace;
}

TEST(Detector, FindsCleanPacket) {
  const lora::Params p = test_params();
  Rng rng(1);
  const double t0 = 3000.0;
  const IqBuffer trace = one_packet_trace(p, t0, 0.0, 1.0, 0.0, rng);
  const Detector det(p);
  lora::Workspace ws;
  const auto found = det.detect(trace, ws);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].t0, t0, 2.0 * p.osf);  // within ~2 chirp samples
  EXPECT_NEAR(found[0].cfo_cycles, 0.0, 1.0);
  EXPECT_GE(found[0].validation_score, 10);
}

class DetectorCfo : public ::testing::TestWithParam<double> {};

TEST_P(DetectorCfo, EstimatesCfoWithinOneBin) {
  const lora::Params p = test_params();
  const double cfo_hz = GetParam();
  Rng rng(static_cast<std::uint64_t>(std::abs(cfo_hz)) + 7);
  const double t0 = 5000.0;
  const IqBuffer trace = one_packet_trace(p, t0, cfo_hz, 1.0, 0.5, rng);
  const Detector det(p);
  lora::Workspace ws;
  const auto found = det.detect(trace, ws);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].cfo_cycles, p.cfo_hz_to_cycles(cfo_hz), 1.0);
  EXPECT_NEAR(found[0].t0, t0, 2.0 * p.osf);
}

INSTANTIATE_TEST_SUITE_P(CfoSweep, DetectorCfo,
                         ::testing::Values(-4000.0, -1500.0, 0.0, 800.0, 3000.0,
                                           4800.0));

TEST(Detector, FindsPacketAtFractionalOffset) {
  const lora::Params p = test_params();
  Rng rng(2);
  const double t0 = 4321.625;
  const IqBuffer trace = one_packet_trace(p, t0, 1234.0, 1.0, 0.5, rng);
  const Detector det(p);
  lora::Workspace ws;
  const auto found = det.detect(trace, ws);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].t0, t0, 2.0 * p.osf);
}

TEST(Detector, FindsPacketInNoise) {
  const lora::Params p = test_params();
  Rng rng(3);
  // SNR 0 dB: amplitude 1 with in-band noise power 1.
  const IqBuffer trace = one_packet_trace(p, 6000.0, -2000.0, 1.0,
                                          chan::fullband_noise_power(p.osf), rng);
  const Detector det(p);
  lora::Workspace ws;
  const auto found = det.detect(trace, ws);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].t0, 6000.0, 2.0 * p.osf);
}

TEST(Detector, EmptyTraceNoDetections) {
  const lora::Params p = test_params();
  Rng rng(4);
  IqBuffer trace(40 * p.sps(), cfloat{0.0f, 0.0f});
  chan::add_awgn(trace, chan::fullband_noise_power(p.osf), rng);
  const Detector det(p);
  lora::Workspace ws;
  EXPECT_TRUE(det.detect(trace, ws).empty());
}

TEST(Detector, TwoSeparatedPackets) {
  const lora::Params p = test_params();
  Rng rng(5);
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(14, 0x11);
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  const IqBuffer pkt = mod.synthesize_shifts(symbols);
  IqBuffer trace(3 * pkt.size() + 20 * p.sps(), cfloat{0.0f, 0.0f});
  const double t0a = 2000.0, t0b = static_cast<double>(pkt.size() + 10 * p.sps());
  for (std::size_t i = 0; i < pkt.size(); ++i) {
    trace[static_cast<std::size_t>(t0a) + i] += pkt[i];
    trace[static_cast<std::size_t>(t0b) + i] += pkt[i];
  }
  chan::add_awgn(trace, 0.5, rng);
  const Detector det(p);
  lora::Workspace ws;
  const auto found = det.detect(trace, ws);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NEAR(found[0].t0, t0a, 2.0 * p.osf);
  EXPECT_NEAR(found[1].t0, t0b, 2.0 * p.osf);
}

TEST(Detector, CollidedPreamblesBothFound) {
  // Two packets offset by ~3.5 symbols with different CFOs: preambles
  // overlap, both must be detected.
  const lora::Params p = test_params();
  Rng rng(6);
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(14, 0x77);
  const auto symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
  lora::WaveformOptions wa, wb;
  wa.cfo_hz = 1000.0;
  wb.cfo_hz = -2500.0;
  const IqBuffer pa = mod.synthesize_shifts(symbols, wa);
  const IqBuffer pb = mod.synthesize_shifts(symbols, wb);
  const double t0a = 2000.0;
  const double t0b = t0a + 3.5 * static_cast<double>(p.sps());
  IqBuffer trace(pa.size() + 12 * p.sps(), cfloat{0.0f, 0.0f});
  for (std::size_t i = 0; i < pa.size(); ++i) {
    trace[static_cast<std::size_t>(t0a) + i] += pa[i];
  }
  for (std::size_t i = 0; i < pb.size() &&
                          static_cast<std::size_t>(t0b) + i < trace.size();
       ++i) {
    trace[static_cast<std::size_t>(t0b) + i] += pb[i];
  }
  chan::add_awgn(trace, 0.5, rng);
  const Detector det(p);
  lora::Workspace ws;
  const auto found = det.detect(trace, ws);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NEAR(found[0].t0, t0a, 2.0 * p.osf);
  EXPECT_NEAR(found[1].t0, t0b, 2.0 * p.osf);
}

TEST(FracSync, RefinesFractionalCfo) {
  const lora::Params p = test_params();
  Rng rng(7);
  // True CFO = 3.4 bins; coarse estimate 3.0 -> residual 0.4.
  const double cfo_hz = p.cfo_cycles_to_hz(3.4);
  const double t0 = 4096.0;
  const IqBuffer trace = one_packet_trace(p, t0, cfo_hz, 1.0, 0.1, rng);
  const FracSync fs(p);
  lora::Workspace ws;
  const FracSyncResult r = fs.refine(trace, t0, 3.0, ws);
  EXPECT_NEAR(3.0 + r.df, 3.4, 0.1);
  EXPECT_NEAR(r.dt, 0.0, 1.0);
  EXPECT_TRUE(r.gated);
}

TEST(FracSync, RefinesFractionalTiming) {
  const lora::Params p = test_params();
  Rng rng(8);
  const double true_t0 = 4096.6;
  const IqBuffer trace = one_packet_trace(p, true_t0, 500.0, 1.0, 0.1, rng);
  const double coarse_t0 = 4096.0;
  const FracSync fs(p);
  lora::Workspace ws;
  const FracSyncResult r =
      fs.refine(trace, coarse_t0, p.cfo_hz_to_cycles(500.0), ws);
  EXPECT_NEAR(coarse_t0 + r.dt, true_t0, 0.5);
}

TEST(FracSync, QPeaksAtTruth) {
  const lora::Params p = test_params();
  Rng rng(9);
  const double t0 = 4096.0;
  const IqBuffer trace = one_packet_trace(p, t0, 0.0, 1.0, 0.0, rng);
  const FracSync fs(p);
  lora::Workspace ws;
  const double q_true = fs.q(trace, t0, 0.0, 0.0, 0.0, false, ws);
  // Off by half a cycle of CFO: markedly lower.
  const double q_cfo = fs.q(trace, t0, 0.0, 0.0, 0.5, false, ws);
  EXPECT_GT(q_true, 2.0 * q_cfo);
  // Off by 2 receiver samples of timing: lower.
  const double q_dt = fs.q(trace, t0, 0.0, 4.0, 0.0, false, ws);
  EXPECT_GT(q_true, q_dt);
}

TEST(FracSync, GateRejectsOffByOneCfo) {
  const lora::Params p = test_params();
  Rng rng(10);
  const double t0 = 4096.0;
  const IqBuffer trace = one_packet_trace(p, t0, 0.0, 1.0, 0.0, rng);
  const FracSync fs(p);
  lora::Workspace ws;
  // With df = 1 the peak sits at bin 1 (not 0): Q* must gate it to zero.
  EXPECT_EQ(fs.q(trace, t0, 0.0, 0.0, 1.0, true, ws), 0.0);
  EXPECT_GT(fs.q(trace, t0, 0.0, 0.0, 0.0, true, ws), 0.0);
}

}  // namespace
}  // namespace tnb::rx
