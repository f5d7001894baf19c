// LZnSync property tests (ISSUE 7): sync found iff a preamble exists,
// timing within +/-0.5 samples at high SNR, and totality on truncated /
// NaN traces (the PR-5 hardening conventions).
#include "baselines/lzn_sync.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "baselines/factories.hpp"
#include "channel/awgn.hpp"
#include "common/rng.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::base {
namespace {

lora::Params fixture_params() {
  return lora::Params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
}

IqBuffer make_single_packet_trace(const lora::Params& p, double t0,
                                  double cfo_hz, double amplitude,
                                  double frac_delay = 0.0) {
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(12, 0xA5);
  lora::WaveformOptions w;
  w.cfo_hz = cfo_hz;
  w.amplitude = amplitude;
  w.frac_delay = frac_delay;
  const IqBuffer pkt = mod.synthesize_shifts(lora::encode_frame(lora::Coding::kPaper, p, app), w);
  IqBuffer trace(static_cast<std::size_t>(t0) + pkt.size() + 8 * p.sps(),
                 cfloat{0.0f, 0.0f});
  for (std::size_t i = 0; i < pkt.size(); ++i) {
    trace[static_cast<std::size_t>(t0) + i] += pkt[i];
  }
  return trace;
}

TEST(LZnSync, FindsPreambleWhenPresent) {
  const lora::Params p = fixture_params();
  const double t0 = 5.0 * p.sps();
  Rng rng(21);
  IqBuffer trace = make_single_packet_trace(p, t0, 700.0, 1.0);
  chan::add_awgn(trace, 0.1, rng);
  LZnSync sync(p);
  const auto found = sync.sync(trace);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].t0, t0, 2.0);  // coarse bound; precision test below
  EXPECT_NEAR(found[0].cfo_cycles, p.cfo_hz_to_cycles(700.0), 0.5);
  EXPECT_GE(found[0].validation_score, 8);
}

TEST(LZnSync, NoDetectionOnNoiseOnlyTrace) {
  const lora::Params p = fixture_params();
  Rng rng(22);
  IqBuffer trace(40 * p.sps(), cfloat{0.0f, 0.0f});
  chan::add_awgn(trace, 1.0, rng);
  LZnSync sync(p);
  EXPECT_TRUE(sync.sync(trace).empty());
}

TEST(LZnSync, NoDetectionOnSilentTrace) {
  const lora::Params p = fixture_params();
  const IqBuffer trace(40 * p.sps(), cfloat{0.0f, 0.0f});
  LZnSync sync(p);
  EXPECT_TRUE(sync.sync(trace).empty());
}

TEST(LZnSync, TimingWithinHalfSampleAtHighSnr) {
  const lora::Params p = fixture_params();
  LZnSync sync(p);
  for (double frac : {0.0, 0.25, 0.5}) {
    const double t0 = 6.0 * p.sps() + frac;
    IqBuffer trace =
        make_single_packet_trace(p, 6.0 * p.sps(), 400.0, 1.0, frac);
    Rng rng(23);
    chan::add_awgn(trace, 0.002, rng);  // ~ +50 dB: refinement-limited
    const auto found = sync.sync(trace);
    ASSERT_EQ(found.size(), 1u) << "frac_delay " << frac;
    EXPECT_NEAR(found[0].t0, t0, 0.5) << "frac_delay " << frac;
  }
}

TEST(LZnSync, TotalOnTruncatedTraces) {
  const lora::Params p = fixture_params();
  LZnSync sync(p);
  EXPECT_TRUE(sync.sync({}).empty());
  const IqBuffer tiny(p.sps() - 1, cfloat{0.1f, 0.0f});
  EXPECT_TRUE(sync.sync(tiny).empty());
  // A preamble cut off mid-way must not crash (and cannot validate).
  IqBuffer cut = make_single_packet_trace(p, 0.0, 0.0, 1.0);
  cut.resize(6 * p.sps());
  const auto found = sync.sync(cut);
  EXPECT_TRUE(found.empty());
}

TEST(LZnSync, TotalOnNanTraces) {
  const lora::Params p = fixture_params();
  LZnSync sync(p);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // All-NaN trace.
  IqBuffer bad(30 * p.sps(), cfloat{nan, nan});
  for (const auto& d : sync.sync(bad)) {
    EXPECT_TRUE(std::isfinite(d.t0));
    EXPECT_TRUE(std::isfinite(d.cfo_cycles));
  }
  // A clean packet with a NaN burst elsewhere must not poison everything.
  IqBuffer trace = make_single_packet_trace(p, 20.0 * p.sps(), 300.0, 1.0);
  for (std::size_t i = 0; i < p.sps(); ++i) trace[i] = cfloat{nan, nan};
  for (const auto& d : sync.sync(trace)) {
    EXPECT_TRUE(std::isfinite(d.t0));
    EXPECT_TRUE(std::isfinite(d.cfo_cycles));
  }
}

TEST(LZnSync, SurfacesWeakPreambleUnderStrongCollider) {
  // The accumulation property: a weak preamble under a strong data-section
  // collider. LZn must report BOTH packets.
  const lora::Params p = fixture_params();
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app_a(18, 0x11), app_b(12, 0x22);
  lora::WaveformOptions wa, wb;
  wa.cfo_hz = 300.0;
  wa.amplitude = 1.0;
  wb.cfo_hz = -600.0;
  wb.amplitude = 0.3;
  const IqBuffer pa = mod.synthesize_shifts(lora::encode_frame(lora::Coding::kPaper, p, app_a), wa);
  const IqBuffer pb = mod.synthesize_shifts(lora::encode_frame(lora::Coding::kPaper, p, app_b), wb);
  const double t0_a = 4.0 * p.sps();
  // The weak preamble sits entirely inside the strong packet's payload.
  const double t0_b = t0_a + 16.0 * p.sps() + 0.4 * p.sps();
  IqBuffer trace(static_cast<std::size_t>(t0_b) + pb.size() + 8 * p.sps(),
                 cfloat{0.0f, 0.0f});
  for (std::size_t i = 0; i < pa.size(); ++i) {
    trace[static_cast<std::size_t>(t0_a) + i] += pa[i];
  }
  for (std::size_t i = 0; i < pb.size(); ++i) {
    trace[static_cast<std::size_t>(t0_b) + i] += pb[i];
  }
  Rng rng(24);
  chan::add_awgn(trace, 0.02, rng);
  LZnSync sync(p);
  const auto found = sync.sync(trace);
  ASSERT_GE(found.size(), 2u);
  bool got_a = false, got_b = false;
  for (const auto& d : found) {
    if (std::abs(d.t0 - t0_a) < 2.0) got_a = true;
    if (std::abs(d.t0 - t0_b) < 2.0) got_b = true;
  }
  EXPECT_TRUE(got_a);
  EXPECT_TRUE(got_b) << "weak collided preamble missed";
}

TEST(LZnSync, EndToEndThroughReceiverSeam) {
  // kLZnThrive's options route detection through LZnSync; a clean packet
  // must decode end to end.
  const lora::Params p = fixture_params();
  sim::Trace trace;
  for (std::uint64_t seed = 5;; ++seed) {
    Rng rng(seed);
    sim::TraceOptions opt;
    opt.duration_s = 1.0;
    opt.load_pps = 3.0;
    opt.nodes = {{1, 20.0, 1200.0}};
    trace = sim::build_trace(p, opt, rng);
    bool clean = true;
    for (std::size_t i = 0; i < trace.packets.size(); ++i) {
      if (sim::collision_level(trace, i) > 0) clean = false;
    }
    if (clean) break;
    ASSERT_LT(seed, 50u) << "no collision-free seed found";
  }
  rx::Receiver r = make_receiver(Scheme::kLZnThrive, p);
  Rng rr(6);
  const auto decoded = r.decode(trace.iq, rr);
  EXPECT_EQ(sim::evaluate(trace, decoded).decoded_unique,
            trace.packets.size());
}

}  // namespace
}  // namespace tnb::base
