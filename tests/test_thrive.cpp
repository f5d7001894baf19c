#include "core/thrive.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/sibling.hpp"
#include "lora/coding.hpp"
#include "lora/gray.hpp"
#include "lora/modulator.hpp"

namespace tnb::rx {
namespace {

lora::Params fixture_params() {
  return lora::Params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
}

/// Two colliding packets with a known time offset and CFOs; contexts are
/// built from ground truth so Thrive is tested in isolation from detection.
struct CollisionFixture {
  lora::Params p = fixture_params();
  IqBuffer trace;
  std::vector<PacketContext> contexts;
  std::vector<std::uint32_t> symbols_a, symbols_b;
  double t0_a = 0.0, t0_b = 0.0;

  CollisionFixture(double offset_symbols, double cfo_a_hz, double cfo_b_hz,
                   double amp_a, double amp_b, double noise, Rng& rng) {
    const lora::Modulator mod(p);
    std::vector<std::uint8_t> app_a(14, 0xA1), app_b(14, 0xB2);
    symbols_a = lora::encode_frame(lora::Coding::kPaper, p, app_a);
    symbols_b = lora::encode_frame(lora::Coding::kPaper, p, app_b);
    lora::WaveformOptions wa, wb;
    wa.cfo_hz = cfo_a_hz;
    wa.amplitude = amp_a;
    wb.cfo_hz = cfo_b_hz;
    wb.amplitude = amp_b;
    const IqBuffer pa = mod.synthesize_shifts(symbols_a, wa);
    const IqBuffer pb = mod.synthesize_shifts(symbols_b, wb);
    t0_a = 4.0 * p.sps();
    t0_b = t0_a + offset_symbols * p.sps();
    trace.assign(pa.size() + static_cast<std::size_t>(t0_b) + 8 * p.sps(),
                 cfloat{0.0f, 0.0f});
    for (std::size_t i = 0; i < pa.size(); ++i) {
      trace[static_cast<std::size_t>(t0_a) + i] += pa[i];
    }
    for (std::size_t i = 0; i < pb.size(); ++i) {
      trace[static_cast<std::size_t>(t0_b) + i] += pb[i];
    }
    if (noise > 0.0) chan::add_awgn(trace, noise, rng);

    DetectedPacket da{t0_a, p.cfo_hz_to_cycles(cfo_a_hz), 0.0, 12};
    DetectedPacket db{t0_b, p.cfo_hz_to_cycles(cfo_b_hz), 0.0, 12};
    contexts.emplace_back(p, da);
    contexts.emplace_back(p, db);
    contexts[0].n_data_symbols = static_cast<int>(symbols_a.size());
    contexts[1].n_data_symbols = static_cast<int>(symbols_b.size());
  }

  /// Builds the AssignInput for the checking point at index j.
  std::vector<ActiveSymbol> active_at(std::size_t j) const {
    std::vector<ActiveSymbol> act;
    const double c = static_cast<double>(j * p.sps());
    for (int pi = 0; pi < 2; ++pi) {
      const auto d = contexts[static_cast<std::size_t>(pi)].data_symbol_at(
          c, contexts[static_cast<std::size_t>(pi)].n_data_symbols);
      if (d.has_value()) {
        act.push_back({pi, *d,
                       contexts[static_cast<std::size_t>(pi)].data_symbol_start(*d)});
      }
    }
    std::sort(act.begin(), act.end(),
              [](const ActiveSymbol& a, const ActiveSymbol& b) {
                return a.window_start < b.window_start;
              });
    return act;
  }
};

TEST(MapBin, IdentityAndShift) {
  EXPECT_NEAR(map_bin(10.0, 5.0, 5.0, 256), 10.0, 1e-9);
  EXPECT_NEAR(map_bin(10.0, 5.0, 7.5, 256), 12.5, 1e-9);
  EXPECT_NEAR(map_bin(250.0, 0.0, 10.0, 256), 4.0, 1e-9);  // wraps
  EXPECT_NEAR(map_bin(4.0, 10.0, 0.0, 256), 250.0, 1e-9);  // inverse
}

TEST(MapBin, ConsecutiveSymbolsSameLocation) {
  // Paper / CoLoRa fact: a misaligned chirp produces peaks at the same
  // location in two consecutive symbols — alpha differs by exactly N.
  lora::Params p = fixture_params();
  DetectedPacket det{1000.0, 2.0, 0.0, 12};
  PacketContext ctx(p, det);
  const double a0 = ctx.alpha_at(ctx.data_symbol_start(3));
  const double a1 = ctx.alpha_at(ctx.data_symbol_start(4));
  EXPECT_NEAR(a1 - a0, static_cast<double>(p.n_bins()), 1e-6);
  EXPECT_NEAR(map_bin(42.0, a0, a1, p.n_bins()), 42.0, 1e-6);
}

TEST(ThriveFixture, SiblingWindowsCoverBothNeighbours) {
  Rng rng(1);
  CollisionFixture fx(2.4, 1000.0, -2000.0, 1.0, 1.0, 0.0, rng);
  // Find a checking point where both packets have data symbols.
  for (std::size_t j = 20; j < 40; ++j) {
    const auto act = fx.active_at(j);
    if (act.size() != 2) continue;
    AssignInput in;
    in.symbols = act;
    in.contexts = fx.contexts;
    const auto sibs = sibling_windows(in, 0);
    // The other packet contributes up to 2 windows.
    ASSERT_GE(sibs.size(), 1u);
    ASSERT_LE(sibs.size(), 2u);
    for (const auto& s : sibs) {
      EXPECT_NE(s.packet, act[0].packet);
      // Each sibling window genuinely overlaps my window.
      EXPECT_LT(s.window_start, act[0].window_start + fx.p.sps());
      EXPECT_GT(s.window_start + fx.p.sps(), act[0].window_start);
    }
    return;
  }
  FAIL() << "no checking point with both symbols found";
}

TEST(Thrive, ResolvesCollisionWithDistinctBoundaries) {
  Rng rng(2);
  CollisionFixture fx(3.35, 1200.0, -2600.0, 1.0, 0.8, 0.5, rng);
  Thrive thrive(fx.p);
  SigCalc sig(fx.p, {fx.trace});
  std::vector<PeakHistory> hist(2);
  hist[0].bootstrap(sig.preamble_heights(fx.contexts[0]));
  hist[1].bootstrap(sig.preamble_heights(fx.contexts[1]));

  int checked = 0, correct = 0;
  for (std::size_t j = 0; j < fx.trace.size() / fx.p.sps(); ++j) {
    const auto act = fx.active_at(j);
    if (act.empty()) continue;
    std::vector<std::vector<double>> masks(act.size());
    AssignInput in;
    in.symbols = act;
    in.contexts = fx.contexts;
    in.masked_bins = masks;
    in.sig = &sig;
    in.history = hist;
    const auto res = thrive.assign(in);
    for (const auto& a : res) {
      const auto& truth =
          a.packet == 0 ? fx.symbols_a : fx.symbols_b;
      const std::uint32_t want = truth[static_cast<std::size_t>(a.data_idx)];
      ++checked;
      if (a.bin == static_cast<int>(want)) ++correct;
      hist[static_cast<std::size_t>(a.packet)].record(a.data_idx, a.height);
    }
  }
  ASSERT_GT(checked, 40);
  // Near-perfect assignment expected with distinct boundaries + CFOs.
  EXPECT_GE(static_cast<double>(correct) / checked, 0.95)
      << correct << "/" << checked;
}

TEST(Thrive, SiblingOnlyStillResolvesEasyCollision) {
  Rng rng(3);
  CollisionFixture fx(2.6, 2000.0, -1500.0, 1.0, 1.0, 0.2, rng);
  ThriveOptions opt;
  opt.use_history = false;
  Thrive thrive(fx.p, opt);
  SigCalc sig(fx.p, {fx.trace});
  int checked = 0, correct = 0;
  for (std::size_t j = 0; j < fx.trace.size() / fx.p.sps(); ++j) {
    const auto act = fx.active_at(j);
    if (act.empty()) continue;
    std::vector<std::vector<double>> masks(act.size());
    AssignInput in;
    in.symbols = act;
    in.contexts = fx.contexts;
    in.masked_bins = masks;
    in.sig = &sig;
    const auto res = thrive.assign(in);
    for (const auto& a : res) {
      const auto& truth = a.packet == 0 ? fx.symbols_a : fx.symbols_b;
      const std::uint32_t want = truth[static_cast<std::size_t>(a.data_idx)];
      ++checked;
      if (a.bin == static_cast<int>(want)) ++correct;
    }
  }
  EXPECT_GE(static_cast<double>(correct) / checked, 0.9);
}

TEST(Thrive, MaskedBinsAreNeverAssigned) {
  Rng rng(4);
  CollisionFixture fx(2.5, 500.0, -500.0, 1.0, 1.0, 0.1, rng);
  Thrive thrive(fx.p);
  SigCalc sig(fx.p, {fx.trace});
  for (std::size_t j = 20; j < 40; ++j) {
    const auto act = fx.active_at(j);
    if (act.size() != 2) continue;
    // Mask the true bin of symbol 0: Thrive must pick something else.
    const auto& truth = act[0].packet == 0 ? fx.symbols_a : fx.symbols_b;
    const double true_bin = truth[static_cast<std::size_t>(act[0].data_idx)];
    std::vector<std::vector<double>> masks(act.size());
    masks[0].push_back(true_bin);
    AssignInput in;
    in.symbols = act;
    in.contexts = fx.contexts;
    in.masked_bins = masks;
    in.sig = &sig;
    const auto res = thrive.assign(in);
    const double diff =
        std::abs(wrap_half(static_cast<double>(res[0].bin) - true_bin,
                           static_cast<double>(fx.p.n_bins())));
    EXPECT_GT(diff, 1.5);
    return;
  }
  FAIL() << "no suitable checking point";
}

TEST(Thrive, EmptyInputYieldsNothing) {
  Thrive thrive(fixture_params());
  AssignInput in;
  EXPECT_TRUE(thrive.assign(in).empty());
}

TEST(PeakHistory, EstimateTracksConstantSeries) {
  PeakHistory h;
  std::vector<double> pre(8, 100.0);
  h.bootstrap(pre);
  for (int d = 0; d < 10; ++d) h.record(d, 100.0);
  const auto est = h.estimate_for(10, /*second_pass=*/false);
  EXPECT_NEAR(est.a, 100.0, 1e-6);
  EXPECT_NEAR(est.d, 0.0, 1e-9);
  EXPECT_NEAR(est.upper(), 100.0, 1e-5);
  EXPECT_NEAR(est.lower(), 100.0, 1e-5);
}

TEST(PeakHistory, UpperLowerBandWidensWithNoise) {
  Rng rng(5);
  PeakHistory h;
  std::vector<double> pre(8);
  for (auto& v : pre) v = rng.normal(100.0, 10.0);
  h.bootstrap(pre);
  for (int d = 0; d < 20; ++d) h.record(d, rng.normal(100.0, 10.0));
  const auto est = h.estimate_for(20, false);
  EXPECT_GT(est.d, 1.0);
  EXPECT_GT(est.upper(), est.a);
  EXPECT_LT(est.lower(), est.a);
  EXPECT_GE(est.lower(), 0.0);
}

TEST(PeakHistory, LowerClampsAtZero) {
  PeakHistory h;
  h.record(0, 1.0);
  h.record(1, 10.0);
  h.record(2, 1.0);
  h.record(3, 10.0);
  const auto est = h.estimate_for(4, false);
  EXPECT_GE(est.lower(), 0.0);
}

TEST(PeakHistory, SecondPassUsesFitAtSymbol) {
  PeakHistory h;
  // Rising trend: second-pass estimate at an early symbol is lower than at
  // a late one.
  for (int d = 0; d < 30; ++d) h.record(d, 10.0 + d);
  const auto early = h.estimate_for(2, true);
  const auto late = h.estimate_for(28, true);
  EXPECT_LT(early.a, late.a);
}

TEST(PeakHistory, EmptyHistoryGivesZeroEstimate) {
  PeakHistory h;
  EXPECT_TRUE(h.empty());
  const auto est = h.estimate_for(0, false);
  EXPECT_EQ(est.a, 0.0);
  EXPECT_EQ(est.d, 0.0);
}


TEST(Thrive, ComplexityBoundsHold) {
  // Paper 5.3.5: at a checking point with M symbols, at most 2M peaks per
  // symbol (2M^2 costs) and at most M assignment iterations.
  Rng rng(41);
  CollisionFixture fx(3.35, 1200.0, -2600.0, 1.0, 0.8, 0.5, rng);
  Thrive thrive(fx.p);
  SigCalc sig(fx.p, {fx.trace});
  std::size_t points = 0;
  for (std::size_t j = 0; j < fx.trace.size() / fx.p.sps(); ++j) {
    const auto act = fx.active_at(j);
    if (act.size() != 2) continue;
    ++points;
    std::vector<std::vector<double>> masks(act.size());
    AssignInput in;
    in.symbols = act;
    in.contexts = fx.contexts;
    in.masked_bins = masks;
    in.sig = &sig;
    thrive.assign(in);
  }
  ASSERT_GT(points, 10u);
  const ThriveStats& st = thrive.stats();
  EXPECT_EQ(st.calls, points);
  EXPECT_EQ(st.symbols, 2 * points);
  // M = 2: at most 2*M^2 = 8 cost evaluations and M iterations per point.
  EXPECT_LE(st.cost_evaluations, 8 * points);
  EXPECT_LE(st.iterations, 2 * points);
  EXPECT_GT(st.cost_evaluations, 0u);
}

}  // namespace
}  // namespace tnb::rx
