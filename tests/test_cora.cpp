// CoRaDetector unit tests: amplitude-consistency symbol decisions vs the
// per-symbol argmax baseline under two- and three-packet synthetic
// collisions, plus the pinned end-to-end scenario of ISSUE 7 (CoRa beats
// LoRaPHY on PRR under two-packet collisions; the CoRa->TnB hybrid is
// never worse than plain CoRa on the same trace).
#include "baselines/cora.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/argmax_assigner.hpp"
#include "baselines/factories.hpp"
#include "baselines/hybrid.hpp"
#include "channel/awgn.hpp"
#include "common/rng.hpp"
#include "lora/coding.hpp"
#include "lora/gray.hpp"
#include "lora/modulator.hpp"
#include "sim/metrics.hpp"

namespace tnb::base {
namespace {

lora::Params fixture_params() {
  return lora::Params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
}

/// One synthesized packet for the collision fixtures.
struct Tx {
  double offset_symbols = 0.0;  ///< start offset from the first packet
  double cfo_hz = 0.0;
  double amplitude = 1.0;
  std::uint8_t fill = 0x3C;     ///< app payload byte
};

/// K-packet collision fixture with ground-truth contexts and bootstrapped
/// peak histories (the receiver always bootstraps from the preamble, so
/// CoRa's amplitude expectation is available).
struct Fixture {
  lora::Params p = fixture_params();
  IqBuffer trace;
  std::vector<rx::PacketContext> contexts;
  std::vector<std::vector<std::uint32_t>> symbols;

  Fixture(const std::vector<Tx>& txs, double noise, Rng& rng) {
    const lora::Modulator mod(p);
    const double base_t0 = 4.0 * p.sps();
    double end = 0.0;
    std::vector<IqBuffer> bufs;
    std::vector<double> t0s;
    for (const Tx& tx : txs) {
      std::vector<std::uint8_t> app(14, tx.fill);
      symbols.push_back(lora::encode_frame(lora::Coding::kPaper, p, app));
      lora::WaveformOptions w;
      w.cfo_hz = tx.cfo_hz;
      w.amplitude = tx.amplitude;
      bufs.push_back(mod.synthesize_shifts(symbols.back(), w));
      t0s.push_back(base_t0 + tx.offset_symbols * p.sps());
      end = std::max(end, t0s.back() + static_cast<double>(bufs.back().size()));
    }
    trace.assign(static_cast<std::size_t>(end) + 8 * p.sps(),
                 cfloat{0.0f, 0.0f});
    for (std::size_t k = 0; k < bufs.size(); ++k) {
      for (std::size_t i = 0; i < bufs[k].size(); ++i) {
        trace[static_cast<std::size_t>(t0s[k]) + i] += bufs[k][i];
      }
    }
    if (noise > 0.0) chan::add_awgn(trace, noise, rng);
    for (std::size_t k = 0; k < txs.size(); ++k) {
      contexts.emplace_back(
          p, rx::DetectedPacket{t0s[k], p.cfo_hz_to_cycles(txs[k].cfo_hz), 0,
                                12});
      contexts.back().n_data_symbols = static_cast<int>(symbols[k].size());
    }
  }

  std::vector<rx::ActiveSymbol> active_at(std::size_t j) const {
    std::vector<rx::ActiveSymbol> act;
    const double c = static_cast<double>(j * p.sps());
    for (int pi = 0; pi < static_cast<int>(contexts.size()); ++pi) {
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

  /// Per-packet correct/checked counts under a strategy, with histories
  /// bootstrapped from the preambles (as the receiver does).
  struct Accuracy {
    std::vector<int> checked, correct;
    double overall() const {
      int ch = 0, co = 0;
      for (std::size_t k = 0; k < checked.size(); ++k) {
        ch += checked[k];
        co += correct[k];
      }
      return ch == 0 ? 0.0 : static_cast<double>(co) / ch;
    }
    double packet(std::size_t k) const {
      return checked[k] == 0
                 ? 0.0
                 : static_cast<double>(correct[k]) / checked[k];
    }
  };

  Accuracy accuracy(rx::PeakAssigner& assigner) {
    rx::SigCalc sig(p, {trace});
    std::vector<rx::PeakHistory> history(contexts.size());
    for (std::size_t k = 0; k < contexts.size(); ++k) {
      history[k].bootstrap(sig.preamble_heights(contexts[k]));
    }
    Accuracy acc;
    acc.checked.assign(contexts.size(), 0);
    acc.correct.assign(contexts.size(), 0);
    for (std::size_t j = 0; j < trace.size() / p.sps(); ++j) {
      const auto act = active_at(j);
      if (act.empty()) continue;
      std::vector<std::vector<double>> masks(act.size());
      rx::AssignInput in;
      in.symbols = act;
      in.contexts = contexts;
      in.masked_bins = masks;
      in.sig = &sig;
      in.history = history;
      for (const auto& a : assigner.assign(in)) {
        const auto& truth = symbols[static_cast<std::size_t>(a.packet)];
        const std::uint32_t want = truth[static_cast<std::size_t>(a.data_idx)];
        ++acc.checked[static_cast<std::size_t>(a.packet)];
        if (a.bin == static_cast<int>(want)) {
          ++acc.correct[static_cast<std::size_t>(a.packet)];
        }
      }
    }
    return acc;
  }
};

TEST(CoRaDetector, BeatsArgmaxOnWeakPacketTwoCollision) {
  // Strong/weak pair: argmax hands the strong node's peak to both packets;
  // CoRa's amplitude expectation singles out the weak tone.
  Rng rng(11);
  Fixture fx({{0.0, 800.0, 1.0, 0x3C}, {2.3, -900.0, 0.45, 0x4D}}, 0.05,
             rng);
  CoRaDetector cora(fx.p);
  ArgmaxAssigner argmax(fx.p);
  const auto ca = fx.accuracy(cora);
  const auto aa = fx.accuracy(argmax);
  EXPECT_GT(ca.packet(1), aa.packet(1))
      << "CoRa weak-packet accuracy " << ca.packet(1) << " vs argmax "
      << aa.packet(1);
  EXPECT_GE(ca.packet(1), 0.7) << "CoRa weak-packet accuracy";
  EXPECT_GE(ca.overall(), aa.overall());
  EXPECT_GE(ca.packet(0), 0.9) << "strong packet must stay accurate";
}

TEST(CoRaDetector, BeatsArgmaxUnderThreePacketCollision) {
  Rng rng(12);
  Fixture fx({{0.0, 700.0, 1.0, 0x3C},
              {2.3, -1100.0, 0.6, 0x4D},
              {4.6, 1900.0, 0.33, 0x5E}},
             0.04, rng);
  CoRaDetector cora(fx.p);
  ArgmaxAssigner argmax(fx.p);
  const auto ca = fx.accuracy(cora);
  const auto aa = fx.accuracy(argmax);
  EXPECT_GT(ca.overall(), aa.overall());
  // The two non-dominant packets are where the discrimination shows.
  EXPECT_GT(ca.packet(1) + ca.packet(2), aa.packet(1) + aa.packet(2));
}

TEST(CoRaDetector, ConfidenceIsLowWhenAmbiguousHighWhenClean) {
  Rng rng(13);
  Fixture fx({{0.0, 800.0, 1.0, 0x3C}, {2.3, -900.0, 0.45, 0x4D}}, 0.05,
             rng);
  CoRaDetector cora(fx.p);
  rx::SigCalc sig(fx.p, {fx.trace});
  std::vector<rx::PeakHistory> history(fx.contexts.size());
  for (std::size_t k = 0; k < fx.contexts.size(); ++k) {
    history[k].bootstrap(sig.preamble_heights(fx.contexts[k]));
  }
  double sum = 0.0;
  int n = 0;
  for (std::size_t j = 0; j < fx.trace.size() / fx.p.sps(); ++j) {
    const auto act = fx.active_at(j);
    if (act.empty()) continue;
    std::vector<std::vector<double>> masks(act.size());
    rx::AssignInput in;
    in.symbols = act;
    in.contexts = fx.contexts;
    in.masked_bins = masks;
    in.sig = &sig;
    in.history = history;
    std::vector<double> conf;
    const auto res = cora.assign_with_confidence(in, conf);
    ASSERT_EQ(conf.size(), res.size());
    for (double c : conf) {
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
      sum += c;
      ++n;
    }
  }
  ASSERT_GT(n, 20);
  // With clean amplitude separation most symbols should be confident.
  EXPECT_GT(sum / n, 0.5);
}

/// Pinned two-collision end-to-end scenario (ISSUE 7 acceptance): several
/// strong/weak pairs; full receivers, PRR by exact payload match.
struct PinnedScenario {
  lora::Params p = fixture_params();
  IqBuffer trace;
  std::vector<std::vector<std::uint8_t>> payloads;

  PinnedScenario() {
    const lora::Modulator mod(p);
    Rng rng(77);
    const int pairs = 6;
    // A packet (14 app bytes, CR4, SF8) spans ~42 symbols; space pairs out.
    const double pair_stride = 64.0 * p.sps();
    double end = 0.0;
    std::vector<IqBuffer> bufs;
    std::vector<double> t0s;
    for (int k = 0; k < pairs; ++k) {
      for (int m = 0; m < 2; ++m) {
        std::vector<std::uint8_t> app(14, 0);
        for (std::size_t b = 0; b < app.size(); ++b) {
          app[b] = static_cast<std::uint8_t>(0x10 + 31 * k + 17 * m + b);
        }
        payloads.push_back(app);
        lora::WaveformOptions w;
        w.cfo_hz = (m == 0 ? 800.0 : -900.0) + 90.0 * k;
        w.amplitude = m == 0 ? 1.0 : 0.45;
        bufs.push_back(mod.synthesize_shifts(lora::encode_frame(lora::Coding::kPaper, p, app), w));
        t0s.push_back(4.0 * p.sps() + k * pair_stride +
                      (m == 0 ? 0.0 : 2.3 * p.sps()));
        end = std::max(end,
                       t0s.back() + static_cast<double>(bufs.back().size()));
      }
    }
    trace.assign(static_cast<std::size_t>(end) + 8 * p.sps(),
                 cfloat{0.0f, 0.0f});
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      for (std::size_t s = 0; s < bufs[i].size(); ++s) {
        trace[static_cast<std::size_t>(t0s[i]) + s] += bufs[i][s];
      }
    }
    chan::add_awgn(trace, 0.05, rng);
  }

  std::size_t decoded_matches(Scheme s) const {
    rx::Receiver receiver = make_receiver(s, p);
    Rng rng(5);
    const auto decoded = receiver.decode(trace, rng);
    std::size_t matches = 0;
    std::vector<bool> used(payloads.size(), false);
    for (const auto& d : decoded) {
      for (std::size_t k = 0; k < payloads.size(); ++k) {
        if (!used[k] && d.payload == payloads[k]) {
          used[k] = true;
          ++matches;
          break;
        }
      }
    }
    return matches;
  }
};

TEST(CoRaPinnedScenario, CoRaBeatsLoRaPhyAndHybridNeverWorse) {
  const PinnedScenario sc;
  const std::size_t cora = sc.decoded_matches(Scheme::kCoRa);
  const std::size_t loraphy = sc.decoded_matches(Scheme::kLoRaPhy);
  const std::size_t hybrid = sc.decoded_matches(Scheme::kCoRaTnB);
  EXPECT_GT(cora, loraphy)
      << "CoRa " << cora << "/" << sc.payloads.size() << " vs LoRaPHY "
      << loraphy;
  EXPECT_GE(hybrid, cora)
      << "hybrid " << hybrid << " vs CoRa " << cora;
  // Sanity floor: the strong half of every pair is decodable by all.
  EXPECT_GE(cora, sc.payloads.size() / 2);
}

TEST(HybridAssigner, EscalatesOnlyDoubtfulSymbols) {
  Rng rng(14);
  Fixture fx({{0.0, 800.0, 1.0, 0x3C}, {2.3, -900.0, 0.45, 0x4D}}, 0.05,
             rng);
  HybridAssigner hybrid(fx.p);
  const auto acc = fx.accuracy(hybrid);
  const auto& st = hybrid.stats();
  EXPECT_GT(st.symbols, 0u);
  EXPECT_LT(st.escalated, st.symbols)
      << "escalating everything means CoRa confidence is broken";
  // The hybrid should not be less accurate than plain CoRa here.
  CoRaDetector cora(fx.p);
  EXPECT_GE(acc.overall(), fx.accuracy(cora).overall() - 1e-9);
}

}  // namespace
}  // namespace tnb::base
