// The paper's Section 8.4 mechanism, reproduced at unit level: an
// "accidental" peak (noise/interference burst visible in one signal vector
// only) has no siblings, so AlignTrack* considers it aligned and — having
// to make an arbitrary choice among aligned peaks — often picks it. Thrive
// gives the same peak a zero sibling cost too, but its height falls outside
// the packet's peak-height history band, and the history cost (Eq. 2)
// breaks the tie toward the true peak.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/aligntrack.hpp"
#include "channel/awgn.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/thrive.hpp"
#include "lora/chirp.hpp"
#include "lora/coding.hpp"
#include "lora/modulator.hpp"

namespace tnb::rx {
namespace {

struct Fixture {
  lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
  IqBuffer trace;
  std::vector<PacketContext> contexts;
  std::vector<std::uint32_t> symbols;
  int victim = 12;          ///< data symbol carrying the accidental peak
  std::uint32_t fake_bin = 200;

  explicit Fixture(Rng& rng, double fake_amp) {
    const lora::Modulator mod(p);
    std::vector<std::uint8_t> app(14, 0x66);
    symbols = lora::encode_frame(lora::Coding::kPaper, p, app);
    const IqBuffer pkt = mod.synthesize_shifts(symbols);
    const double t0 = 4.0 * p.sps();
    trace.assign(pkt.size() + 8 * p.sps(), cfloat{0.0f, 0.0f});
    for (std::size_t i = 0; i < pkt.size(); ++i) {
      trace[static_cast<std::size_t>(t0) + i] += pkt[i];
    }
    contexts.emplace_back(p, DetectedPacket{t0, 0.0, 0.0, 12});
    contexts[0].n_data_symbols = static_cast<int>(symbols.size());

    // Accidental peak: a chirp burst at a different shift confined to ONE
    // symbol window — it dechirps to a tall tone there and nowhere else.
    const double w = contexts[0].data_symbol_start(victim);
    const auto burst = lora::make_upchirp(p, fake_bin);
    for (std::size_t i = 0; i < burst.size(); ++i) {
      trace[static_cast<std::size_t>(w) + i] +=
          static_cast<float>(fake_amp) * burst[i];
    }
    chan::add_awgn(trace, 0.3, rng);
  }

  int assign_victim(PeakAssigner& assigner, SigCalc& sig,
                    std::span<PeakHistory> hist) {
    AssignInput in;
    const ActiveSymbol sym{0, victim, contexts[0].data_symbol_start(victim)};
    std::vector<ActiveSymbol> act{sym};
    std::vector<std::vector<double>> masks(1);
    in.symbols = act;
    in.contexts = contexts;
    in.masked_bins = masks;
    in.sig = &sig;
    in.history = hist;
    return assigner.assign(in)[0].bin;
  }
};

/// Seeds the packet's history with its true (clean) peak heights up to the
/// victim symbol.
void seed_history(Fixture& fx, SigCalc& sig, PeakHistory& hist) {
  hist.bootstrap(sig.preamble_heights(fx.contexts[0]));
  for (int d = 0; d < fx.victim; ++d) {
    const auto& view = sig.data_symbol(0, fx.contexts[0], d);
    const std::uint32_t bin = fx.symbols[static_cast<std::size_t>(d)];
    hist.record(d, view.sv[bin]);
  }
}

TEST(AccidentalPeaks, ThriveHistoryRejectsTooTallImpostor) {
  Rng rng(1);
  Fixture fx(rng, 2.5);  // impostor ~6x the true peak power
  SigCalc sig(fx.p, {fx.trace});
  std::vector<PeakHistory> hist(1);
  seed_history(fx, sig, hist[0]);
  const int want = static_cast<int>(fx.symbols[static_cast<std::size_t>(fx.victim)]);

  Thrive thrive(fx.p);
  EXPECT_EQ(fx.assign_victim(thrive, sig, hist), want)
      << "Thrive's history cost must reject the out-of-band impostor";
}

TEST(AccidentalPeaks, AlignTrackPicksTheImpostor) {
  // AlignTrack* has no history: the impostor is aligned (no siblings) and
  // taller, so its arbitrary choice lands on the wrong peak — the Section
  // 8.4 failure mode.
  Rng rng(1);
  Fixture fx(rng, 2.5);
  SigCalc sig(fx.p, {fx.trace});
  std::vector<PeakHistory> hist(1);  // ignored by AlignTrack*
  const int want = static_cast<int>(fx.symbols[static_cast<std::size_t>(fx.victim)]);

  base::AlignTrackStar at(fx.p);
  const int got = fx.assign_victim(at, sig, hist);
  EXPECT_NE(got, want);
  EXPECT_NEAR(static_cast<double>(got), static_cast<double>(fx.fake_bin), 1.5);
}

TEST(AccidentalPeaks, SiblingOnlyThriveAlsoFooled) {
  // Without the history cost, Thrive degenerates the same way — the
  // "Sibling" ablation of Fig. 15.
  Rng rng(1);
  Fixture fx(rng, 2.5);
  SigCalc sig(fx.p, {fx.trace});
  std::vector<PeakHistory> hist(1);
  seed_history(fx, sig, hist[0]);
  const int want = static_cast<int>(fx.symbols[static_cast<std::size_t>(fx.victim)]);

  ThriveOptions opt;
  opt.use_history = false;
  Thrive sibling(fx.p, opt);
  const int got = fx.assign_victim(sibling, sig, hist);
  EXPECT_NE(got, want) << "sibling cost alone cannot separate the impostor";
}

}  // namespace
}  // namespace tnb::rx
