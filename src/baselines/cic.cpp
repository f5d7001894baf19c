#include "baselines/cic.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_util.hpp"
#include "core/window.hpp"
#include "dsp/fft.hpp"
#include "dsp/peak_finder.hpp"
#include "dsp/smoother.hpp"
#include "lora/chirp.hpp"
#include "lora/demodulator.hpp"

namespace tnb::base {

CicAssigner::CicAssigner(lora::Params p, CicOptions opt) : p_(p), opt_(opt) {
  p_.validate();
}

SignalVector CicAssigner::subwindow_spectrum(const rx::AssignInput& in,
                                             double w_start, double a,
                                             double b, double cfo) const {
  const std::size_t sps = p_.sps();
  const std::size_t n = p_.n_bins();
  const std::size_t off = static_cast<std::size_t>(std::max(0.0, a - w_start));
  const std::size_t len =
      std::min(sps - off, static_cast<std::size_t>(std::max(0.0, b - a)));

  std::vector<cfloat> seg(len);
  rx::extract_window(in.sig->antenna(0), a, seg);

  // Dechirp the segment with the matching slice of the downchirp and CFO
  // phasor, keeping its position inside the symbol so the tone bin is the
  // same as in the full-window spectrum.
  std::vector<cfloat> buf(sps, cfloat{0.0f, 0.0f});
  const double dphi = -kTwoPi * cfo / static_cast<double>(sps);
  for (std::size_t i = 0; i < len; ++i) {
    const double u = static_cast<double>(off + i) / p_.osf;
    const cfloat ref = lora::eval_downchirp(u, n);
    const double ph = dphi * static_cast<double>(off + i);
    const cfloat rot{static_cast<float>(std::cos(ph)),
                     static_cast<float>(std::sin(ph))};
    buf[off + i] = seg[i] * ref * rot;
  }
  dsp::fft_inplace(buf);

  SignalVector sv(n);
  const std::size_t image = n * (p_.osf - 1);
  float mx = 0.0f;
  for (std::size_t k = 0; k < n; ++k) {
    sv[k] = std::norm(buf[k]);
    if (p_.osf > 1) sv[k] += std::norm(buf[k + image]);
    mx = std::max(mx, sv[k]);
  }
  if (mx > 0.0f) {
    for (float& v : sv) v /= mx;
  }
  return sv;
}

std::vector<rx::Assignment> CicAssigner::assign(const rx::AssignInput& in) {
  const std::size_t n = p_.n_bins();
  const double nd = static_cast<double>(n);
  const double sps = static_cast<double>(p_.sps());
  const double min_len = sps / static_cast<double>(opt_.min_subwindow_div);

  std::vector<rx::Assignment> out(in.symbols.size());
  std::vector<double> median_scratch;  // reused by every sub-window median
  for (std::size_t i = 0; i < in.symbols.size(); ++i) {
    const rx::ActiveSymbol& sym = in.symbols[i];
    const rx::PacketContext& ctx =
        in.contexts[static_cast<std::size_t>(sym.packet)];
    const double w = sym.window_start;
    const double cfo = ctx.cfo_cycles();
    out[i].packet = sym.packet;
    out[i].data_idx = sym.data_idx;

    // Interferer boundaries inside [w, w+sps).
    std::vector<double> cuts{w, w + sps};
    for (std::size_t k = 0; k < in.symbols.size(); ++k) {
      if (k == i) continue;
      double b = in.symbols[k].window_start;
      if (b <= w) b += sps;
      if (b > w && b < w + sps) cuts.push_back(b);
    }
    std::sort(cuts.begin(), cuts.end());

    // The target's tone persists across every sub-window; an interferer's
    // tone leaves the peak set of the sub-windows beyond its boundary.
    // Candidates are the full-window peaks; each sub-window votes for the
    // candidates that still show a peak near the candidate bin.
    const rx::SymbolView& view =
        in.sig->data_symbol(sym.packet, ctx, sym.data_idx);
    const auto& masks = in.masked_bins[i];
    std::vector<const dsp::Peak*> candidates;
    for (const dsp::Peak& pk : view.peaks) {
      bool masked = false;
      for (double mb : masks) {
        if (std::abs(wrap_half(pk.frac_index - mb, nd)) <= 1.5) {
          masked = true;
          break;
        }
      }
      if (!masked) candidates.push_back(&pk);
    }
    if (candidates.empty()) {
      out[i].bin = static_cast<int>(lora::Demodulator::argmax(view.sv));
      out[i].height = view.sv[static_cast<std::size_t>(out[i].bin)];
      continue;
    }

    std::vector<int> votes(candidates.size(), 0);
    int n_subwindows = 0;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      const double len = cuts[c + 1] - cuts[c];
      if (len < min_len) continue;
      const SignalVector sub =
          subwindow_spectrum(in, w, cuts[c], cuts[c + 1], cfo);
      ++n_subwindows;
      median_scratch.assign(sub.begin(), sub.end());
      const double med =
          std::max(dsp::median_in_place(median_scratch), 1e-30);
      // Spectral resolution of a short sub-window widens the match window.
      const int tol =
          static_cast<int>(std::lround(std::max(1.5, 0.75 * sps / len)));
      for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
        const int base = static_cast<int>(candidates[ci]->index);
        double e = 0.0;
        for (int d = -tol; d <= tol; ++d) {
          const std::size_t b = static_cast<std::size_t>(
              floor_mod(base + d, static_cast<std::int64_t>(n)));
          e = std::max(e, static_cast<double>(sub[b]));
        }
        // A tone is "present" if it clearly rises above this sub-window's
        // noise floor.
        if (e >= 6.0 * med) ++votes[ci];
      }
    }

    // The target's tone must survive in every sub-window: among fully
    // persistent candidates pick the tallest (candidates are height-sorted);
    // if none persists everywhere, fall back to the most votes.
    std::size_t best_ci = candidates.size();
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (votes[ci] == n_subwindows) {
        best_ci = ci;
        break;
      }
    }
    if (best_ci == candidates.size()) {
      best_ci = 0;
      for (std::size_t ci = 1; ci < candidates.size(); ++ci) {
        if (votes[ci] > votes[best_ci]) best_ci = ci;
      }
    }
    out[i].bin = static_cast<int>(candidates[best_ci]->index);
    out[i].height = candidates[best_ci]->value;
  }
  return out;
}

}  // namespace tnb::base
