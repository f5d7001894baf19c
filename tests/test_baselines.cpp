#include "baselines/factories.hpp"

#include <gtest/gtest.h>

#include "baselines/aligntrack.hpp"
#include "baselines/argmax_assigner.hpp"
#include "baselines/cic.hpp"
#include "channel/awgn.hpp"
#include "common/rng.hpp"
#include "lora/coding.hpp"
#include "lora/gray.hpp"
#include "lora/modulator.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::base {
namespace {

lora::Params fixture_params() {
  return lora::Params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
}

/// Same two-packet fixture as the Thrive tests (ground-truth contexts).
struct Fixture {
  lora::Params p = fixture_params();
  IqBuffer trace;
  std::vector<rx::PacketContext> contexts;
  std::vector<std::uint32_t> symbols_a, symbols_b;

  Fixture(double offset_symbols, double cfo_a, double cfo_b, double amp_a,
          double amp_b, double noise, Rng& rng) {
    const lora::Modulator mod(p);
    std::vector<std::uint8_t> app_a(14, 0x3C), app_b(14, 0x4D);
    symbols_a = lora::encode_frame(lora::Coding::kPaper, p, app_a);
    symbols_b = lora::encode_frame(lora::Coding::kPaper, p, app_b);
    lora::WaveformOptions wa, wb;
    wa.cfo_hz = cfo_a;
    wa.amplitude = amp_a;
    wb.cfo_hz = cfo_b;
    wb.amplitude = amp_b;
    const IqBuffer pa = mod.synthesize_shifts(symbols_a, wa);
    const IqBuffer pb = mod.synthesize_shifts(symbols_b, wb);
    const double t0_a = 4.0 * p.sps();
    const double t0_b = t0_a + offset_symbols * p.sps();
    trace.assign(pa.size() + static_cast<std::size_t>(t0_b) + 8 * p.sps(),
                 cfloat{0.0f, 0.0f});
    for (std::size_t i = 0; i < pa.size(); ++i) {
      trace[static_cast<std::size_t>(t0_a) + i] += pa[i];
    }
    for (std::size_t i = 0; i < pb.size(); ++i) {
      trace[static_cast<std::size_t>(t0_b) + i] += pb[i];
    }
    if (noise > 0.0) chan::add_awgn(trace, noise, rng);
    contexts.emplace_back(p, rx::DetectedPacket{t0_a, p.cfo_hz_to_cycles(cfo_a), 0, 12});
    contexts.emplace_back(p, rx::DetectedPacket{t0_b, p.cfo_hz_to_cycles(cfo_b), 0, 12});
    contexts[0].n_data_symbols = static_cast<int>(symbols_a.size());
    contexts[1].n_data_symbols = static_cast<int>(symbols_b.size());
  }

  std::vector<rx::ActiveSymbol> active_at(std::size_t j) const {
    std::vector<rx::ActiveSymbol> act;
    const double c = static_cast<double>(j * p.sps());
    for (int pi = 0; pi < 2; ++pi) {
      const auto& ctx = contexts[static_cast<std::size_t>(pi)];
      const auto d = ctx.data_symbol_at(c, ctx.n_data_symbols);
      if (d.has_value()) act.push_back({pi, *d, ctx.data_symbol_start(*d)});
    }
    std::sort(act.begin(), act.end(),
              [](const rx::ActiveSymbol& a, const rx::ActiveSymbol& b) {
                return a.window_start < b.window_start;
              });
    return act;
  }

  /// Fraction of symbols a strategy assigns to the true transmitted bin.
  double accuracy(rx::PeakAssigner& assigner) {
    rx::SigCalc sig(p, {trace});
    int checked = 0, correct = 0;
    for (std::size_t j = 0; j < trace.size() / p.sps(); ++j) {
      const auto act = active_at(j);
      if (act.empty()) continue;
      std::vector<std::vector<double>> masks(act.size());
      rx::AssignInput in;
      in.symbols = act;
      in.contexts = contexts;
      in.masked_bins = masks;
      in.sig = &sig;
      for (const auto& a : assigner.assign(in)) {
        const auto& truth = a.packet == 0 ? symbols_a : symbols_b;
        const std::uint32_t want = truth[static_cast<std::size_t>(a.data_idx)];
        ++checked;
        if (a.bin == static_cast<int>(want)) ++correct;
      }
    }
    return checked == 0 ? 0.0 : static_cast<double>(correct) / checked;
  }
};

TEST(Factories, AllSchemesConstructAndName) {
  const lora::Params p = fixture_params();
  for (Scheme s : all_schemes()) {
    EXPECT_FALSE(scheme_name(s).empty());
    rx::Receiver r = make_receiver(s, p);
    (void)r;
  }
  EXPECT_EQ(scheme_name(Scheme::kTnB), "TnB");
  EXPECT_EQ(scheme_name(Scheme::kCicBec), "CIC+");
  EXPECT_EQ(scheme_name(Scheme::kAlignTrack), "AlignTrack*");
  EXPECT_EQ(scheme_name(Scheme::kCoRa), "CoRa");
  EXPECT_EQ(scheme_name(Scheme::kCoRaBec), "CoRa+");
  EXPECT_EQ(scheme_name(Scheme::kLZnThrive), "LZn-Thrive");
  EXPECT_EQ(scheme_name(Scheme::kCoRaTnB), "CoRa-TnB");
}

TEST(Factories, CliNamesRoundTripAndListEverything) {
  // The tnb_eval CLI derives its tokens and --help list from these; a
  // token must parse back to exactly its scheme.
  for (Scheme s : all_schemes()) {
    const std::string token = scheme_cli_name(s);
    EXPECT_FALSE(token.empty());
    const auto parsed = parse_scheme(token);
    ASSERT_TRUE(parsed.has_value()) << token;
    EXPECT_EQ(*parsed, s) << token;
    EXPECT_NE(scheme_cli_list().find(token), std::string::npos);
  }
  // Historical tokens are pinned (scripts depend on them).
  EXPECT_EQ(scheme_cli_name(Scheme::kTnB), "tnb");
  EXPECT_EQ(scheme_cli_name(Scheme::kLoRaPhy), "loraphy");
  EXPECT_EQ(scheme_cli_name(Scheme::kCicBec), "cic+");
  EXPECT_EQ(scheme_cli_name(Scheme::kAlignTrack), "aligntrack");
  EXPECT_EQ(scheme_cli_name(Scheme::kAlignTrackBec), "aligntrack+");
  EXPECT_EQ(scheme_cli_name(Scheme::kCoRa), "cora");
  EXPECT_EQ(scheme_cli_name(Scheme::kLZnThrive), "lzn-thrive");
  EXPECT_EQ(scheme_cli_name(Scheme::kCoRaTnB), "cora-tnb");
  EXPECT_FALSE(parse_scheme("nonsense").has_value());
  EXPECT_FALSE(parse_scheme("").has_value());
}

TEST(Factories, NewSchemeConfigs) {
  const lora::Params p = fixture_params();
  EXPECT_FALSE(make_receiver(Scheme::kCoRa, p).options().use_bec);
  EXPECT_TRUE(make_receiver(Scheme::kCoRaBec, p).options().use_bec);
  EXPECT_FALSE(make_receiver(Scheme::kLZnThrive, p).options().use_bec);
  EXPECT_TRUE(make_receiver(Scheme::kCoRaTnB, p).options().use_bec);
  EXPECT_TRUE(make_receiver(Scheme::kCoRaTnB, p).options().two_pass);
  EXPECT_NE(make_receiver(Scheme::kLZnThrive, p).options().sync, nullptr);
  EXPECT_EQ(make_receiver(Scheme::kCoRa, p).options().sync, nullptr);
  EXPECT_EQ(make_receiver(Scheme::kTnB, p).options().sync, nullptr);
}

TEST(Factories, SchemeConfigsMatchPaper) {
  const lora::Params p = fixture_params();
  EXPECT_TRUE(make_receiver(Scheme::kTnB, p).options().use_bec);
  EXPECT_FALSE(make_receiver(Scheme::kThrive, p).options().use_bec);
  EXPECT_FALSE(make_receiver(Scheme::kSibling, p).options().thrive.use_history);
  EXPECT_FALSE(make_receiver(Scheme::kLoRaPhy, p).options().two_pass);
  EXPECT_TRUE(make_receiver(Scheme::kCicBec, p).options().use_bec);
}

TEST(ArgmaxAssigner, MatchesTallestBin) {
  Rng rng(1);
  Fixture fx(2.3, 800.0, -900.0, 1.0, 0.3, 0.1, rng);
  ArgmaxAssigner assigner(fx.p);
  rx::SigCalc sig(fx.p, {fx.trace});
  for (std::size_t j = 20; j < 40; ++j) {
    const auto act = fx.active_at(j);
    if (act.size() != 2) continue;
    std::vector<std::vector<double>> masks(act.size());
    rx::AssignInput in;
    in.symbols = act;
    in.contexts = fx.contexts;
    in.masked_bins = masks;
    in.sig = &sig;
    const auto res = assigner.assign(in);
    for (std::size_t i = 0; i < act.size(); ++i) {
      const auto& view = sig.data_symbol(
          act[i].packet, fx.contexts[static_cast<std::size_t>(act[i].packet)],
          act[i].data_idx);
      EXPECT_EQ(res[i].bin,
                static_cast<int>(lora::Demodulator::argmax(view.sv)));
    }
    return;
  }
  FAIL() << "no checking point";
}

TEST(ArgmaxAssigner, StrongPacketDominatesWeakOne) {
  // Vanilla demod assigns the strong node's peak to both packets' symbols:
  // the weak packet's accuracy collapses while the strong one stays high.
  Rng rng(2);
  Fixture fx(2.3, 800.0, -900.0, 1.0, 0.25, 0.1, rng);
  ArgmaxAssigner assigner(fx.p);
  rx::SigCalc sig(fx.p, {fx.trace});
  int weak_checked = 0, weak_correct = 0;
  for (std::size_t j = 0; j < fx.trace.size() / fx.p.sps(); ++j) {
    const auto act = fx.active_at(j);
    if (act.size() != 2) continue;  // only fully-collided symbols
    std::vector<std::vector<double>> masks(act.size());
    rx::AssignInput in;
    in.symbols = act;
    in.contexts = fx.contexts;
    in.masked_bins = masks;
    in.sig = &sig;
    for (const auto& a : assigner.assign(in)) {
      if (a.packet != 1) continue;  // packet 1 is the weak one
      const std::uint32_t want = fx.symbols_b[static_cast<std::size_t>(a.data_idx)];
      ++weak_checked;
      if (a.bin == static_cast<int>(want)) ++weak_correct;
    }
  }
  ASSERT_GT(weak_checked, 10);
  EXPECT_LT(static_cast<double>(weak_correct) / weak_checked, 0.5);
}

TEST(CicAssigner, RecoversWeakPacketUnderStrongInterference) {
  // The defining CIC property: sub-window intersection cancels a strong
  // interferer whose boundary cuts the target window.
  Rng rng(3);
  Fixture fx(2.45, 1100.0, -2100.0, 0.35, 1.0, 0.1, rng);
  CicAssigner cic(fx.p);
  const double acc = fx.accuracy(cic);
  ArgmaxAssigner argmax(fx.p);
  const double base = fx.accuracy(argmax);
  EXPECT_GT(acc, base);
  EXPECT_GE(acc, 0.8) << "cic accuracy " << acc;
}

TEST(AlignTrackStar, ResolvesCollisionWithDistinctAlignments) {
  Rng rng(4);
  Fixture fx(3.4, 1800.0, -2300.0, 1.0, 0.8, 0.2, rng);
  AlignTrackStar at(fx.p);
  EXPECT_GE(fx.accuracy(at), 0.85);
}

TEST(Baselines, EndToEndSchemesDecodeCleanTrace) {
  const lora::Params p = fixture_params();
  // Random start times can make even a single node's packets overlap;
  // LoRaPHY legitimately fails then. Find a collision-free layout.
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
  for (Scheme s : all_schemes()) {
    rx::Receiver r = make_receiver(s, p);
    Rng rr(6);
    const auto decoded = r.decode(trace.iq, rr);
    const auto result = sim::evaluate(trace, decoded);
    EXPECT_EQ(result.decoded_unique, trace.packets.size())
        << scheme_name(s) << " failed on a clean trace";
  }
}

}  // namespace
}  // namespace tnb::base
