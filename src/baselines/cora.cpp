#include "baselines/cora.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_util.hpp"
#include "lora/demodulator.hpp"

namespace tnb::base {
namespace {

/// Peaks whose amplitude is within this relative error of the history
/// expectation are protected from fragment elimination (they are
/// plausibly the target even if a boundary could explain them).
constexpr double kAmpTol = 0.3;
/// A peak pair is a fragment pair if the two interferer-amplitude
/// estimates a_p/f and a_q/(1-f) agree within this relative tolerance.
constexpr double kFragmentTol = 0.25;
/// Cyclic-bin distance to a masked (known-interference) location at
/// which a peak is discarded, matching the CIC/AlignTrack convention.
constexpr double kMaskTol = 1.5;
/// Candidate peaks examined per symbol (height-sorted view peaks).
constexpr std::size_t kMaxCandidates = 8;
/// Boundary fractions closer than this to the window edge are ignored:
/// the smaller fragment carries too little energy to show as a peak.
constexpr double kMinBoundaryFrac = 0.04;

double clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }

}  // namespace

CoRaDetector::CoRaDetector(lora::Params p) : p_(p) { p_.validate(); }

std::vector<rx::Assignment> CoRaDetector::assign(const rx::AssignInput& in) {
  std::vector<double> confidence;
  return assign_with_confidence(in, confidence);
}

std::vector<rx::Assignment> CoRaDetector::assign_with_confidence(
    const rx::AssignInput& in, std::vector<double>& confidence) {
  const std::size_t n = p_.n_bins();
  const double nd = static_cast<double>(n);
  const double sps = static_cast<double>(p_.sps());

  std::vector<rx::Assignment> out(in.symbols.size());
  confidence.assign(in.symbols.size(), 0.0);

  for (std::size_t i = 0; i < in.symbols.size(); ++i) {
    const rx::ActiveSymbol& sym = in.symbols[i];
    const rx::PacketContext& ctx =
        in.contexts[static_cast<std::size_t>(sym.packet)];
    const double w = sym.window_start;
    out[i].packet = sym.packet;
    out[i].data_idx = sym.data_idx;

    const rx::SymbolView& view =
        in.sig->data_symbol(sym.packet, ctx, sym.data_idx);

    // Candidate peaks: unmasked view peaks (height-sorted by the finder).
    const auto& masks = in.masked_bins[i];
    struct Cand {
      int bin = 0;
      double height = 0.0;  ///< folded power (what histories record)
      double amp = 0.0;     ///< sqrt(power): the linear amplitude proxy
      bool fragment = false;
    };
    std::vector<Cand> cands;
    for (const dsp::Peak& pk : view.peaks) {
      if (cands.size() >= kMaxCandidates) break;
      bool masked = false;
      for (double mb : masks) {
        if (std::abs(wrap_half(pk.frac_index - mb, nd)) <= kMaskTol) {
          masked = true;
          break;
        }
      }
      if (masked) continue;
      Cand c;
      c.bin = static_cast<int>(pk.index);
      c.height = pk.value;
      c.amp = std::sqrt(std::max(0.0, static_cast<double>(pk.value)));
      cands.push_back(c);
    }
    if (cands.empty()) {
      // Nothing above the peak finder's bar: plain argmax keeps the symbol
      // assignable (the decoder may still rescue it).
      out[i].bin = static_cast<int>(lora::Demodulator::argmax(view.sv));
      out[i].height = view.sv[static_cast<std::size_t>(out[i].bin)];
      confidence[i] = 0.0;
      continue;
    }

    // Expected amplitude from the node's peak-height history (heights are
    // folded powers; the preamble bootstrap makes the history non-empty).
    double expect = 0.0;
    if (static_cast<std::size_t>(sym.packet) < in.history.size()) {
      const rx::PeakHistory::Estimate est =
          in.history[static_cast<std::size_t>(sym.packet)].estimate_for(
              sym.data_idx, in.second_pass);
      expect = std::sqrt(std::max(0.0, est.a));
    }

    // Interferer symbol-boundary fractions inside [w, w + sps): each is a
    // point where another packet's tone may end and a new one begin,
    // splitting into an f : (1-f) fragment pair.
    std::vector<double> fracs;
    for (std::size_t k = 0; k < in.symbols.size(); ++k) {
      if (in.symbols[k].packet == sym.packet) continue;
      double b = in.symbols[k].window_start;
      if (b <= w) b += sps;
      if (b <= w || b >= w + sps) continue;
      const double f = (b - w) / sps;
      if (f < kMinBoundaryFrac || f > 1.0 - kMinBoundaryFrac) continue;
      bool dup = false;
      for (double g : fracs) {
        if (std::abs(g - f) < 1e-6) {
          dup = true;
          break;
        }
      }
      if (!dup) fracs.push_back(f);
    }

    // Fragment elimination: a pair (p, q) whose amplitudes are consistent
    // with ONE interferer tone of amplitude A split at some boundary
    // (a_p ~ f*A, a_q ~ (1-f)*A) is interference, not the target. Peaks
    // already matching the expected amplitude are protected.
    for (std::size_t pi = 0; pi < cands.size(); ++pi) {
      for (std::size_t qi = 0; qi < cands.size(); ++qi) {
        if (pi == qi) continue;
        for (double f : fracs) {
          const double a1 = cands[pi].amp / f;
          const double a2 = cands[qi].amp / (1.0 - f);
          const double hi = std::max(a1, a2);
          if (hi <= 0.0) continue;
          if (std::abs(a1 - a2) / hi > kFragmentTol) continue;
          const auto protected_peak = [&](const Cand& c) {
            return expect > 0.0 &&
                   std::abs(c.amp - expect) / expect <= kAmpTol;
          };
          if (!protected_peak(cands[pi])) cands[pi].fragment = true;
          if (!protected_peak(cands[qi])) cands[qi].fragment = true;
        }
      }
    }

    // Decision: the surviving peak whose amplitude best matches the
    // history expectation; fragments rejoin (with a confidence penalty)
    // only when elimination wiped out every candidate.
    std::vector<std::size_t> pool;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      if (!cands[c].fragment) pool.push_back(c);
    }
    double penalty = 1.0;
    if (pool.empty()) {
      for (std::size_t c = 0; c < cands.size(); ++c) pool.push_back(c);
      penalty = 0.5;
    }

    std::size_t best = pool[0];
    double conf;
    if (expect > 0.0) {
      double e_best = 1e300, e_second = 1e300;
      for (std::size_t c : pool) {
        const double e = std::abs(cands[c].amp - expect) / expect;
        if (e < e_best) {
          e_second = e_best;
          e_best = e;
          best = c;
        } else if (e < e_second) {
          e_second = e;
        }
      }
      conf = clamp01(1.0 - e_best);
      // An almost-as-good runner-up means the amplitude match did not
      // really discriminate.
      if (e_second - e_best < 0.15) conf *= 0.5;
    } else {
      // No usable history: tallest unmasked peak, low confidence.
      conf = 0.3;
    }
    out[i].bin = cands[best].bin;
    out[i].height = cands[best].height;
    confidence[i] = conf * penalty;
  }
  return out;
}

}  // namespace tnb::base
