#include "core/thrive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.hpp"
#include "core/sibling.hpp"

namespace tnb::rx {
namespace {

/// Bins: a found peak within this cyclic distance of the expected location
/// is the sibling, otherwise the raw vector value at the expected bin is
/// used; a peak this close to a masked or assigned bin is that bin's.
constexpr double kSiblingTol = 1.5;

}  // namespace

double map_bin(double b, double alpha_from, double alpha_to, std::size_t n) {
  return floor_mod(b + (alpha_to - alpha_from), static_cast<double>(n));
}

std::vector<SiblingWindow> sibling_windows(const AssignInput& in,
                                           std::size_t sym_idx) {
  const ActiveSymbol& me = in.symbols[sym_idx];
  std::vector<SiblingWindow> out;
  out.reserve(2 * in.symbols.size());
  for (std::size_t k = 0; k < in.symbols.size(); ++k) {
    if (k == sym_idx) continue;
    const ActiveSymbol& other = in.symbols[k];
    const PacketContext& ctx = in.contexts[static_cast<std::size_t>(other.packet)];

    auto push = [&](int d) {
      if (d < 0) return;
      if (ctx.n_data_symbols >= 0 && d >= ctx.n_data_symbols) return;
      out.push_back({other.packet, d, ctx.data_symbol_start(d)});
    };
    push(other.data_idx);
    // The neighbour covering the part of my window the aligned symbol
    // misses: the next symbol if the other boundary precedes mine, the
    // previous one otherwise.
    if (other.window_start <= me.window_start) {
      push(other.data_idx + 1);
    } else {
      push(other.data_idx - 1);
    }
  }
  return out;
}

double sibling_height(const AssignInput& in, const SiblingWindow& w,
                      double expected_bin, double tol) {
  const PacketContext& ctx = in.contexts[static_cast<std::size_t>(w.packet)];
  const SymbolView& view = in.sig->data_symbol(w.packet, ctx, w.data_idx);
  const std::size_t n = view.sv.size();
  double best = -1.0;
  for (const dsp::Peak& pk : view.peaks) {
    const double d = std::abs(
        wrap_half(pk.frac_index - expected_bin, static_cast<double>(n)));
    if (d <= tol && pk.value > best) best = pk.value;
  }
  if (best >= 0.0) return best;
  const std::size_t bin = static_cast<std::size_t>(
      floor_mod(static_cast<std::int64_t>(std::lround(expected_bin)),
                static_cast<std::int64_t>(n)));
  return static_cast<double>(view.sv[bin]);
}

Thrive::Thrive(lora::Params p, ThriveOptions opt) : p_(p), opt_(opt) {
  p_.validate();
}

std::vector<Assignment> Thrive::assign(const AssignInput& in) {
  const std::size_t m = in.symbols.size();
  std::vector<Assignment> result(m);
  if (m == 0) return result;
  ++stats_.calls;
  stats_.symbols += m;
  const std::size_t n = p_.n_bins();
  const double nd = static_cast<double>(n);

  struct Candidate {
    double bin = 0.0;     // fractional peak location
    double height = 0.0;
    double cost = 0.0;
    bool alive = true;
  };
  struct SymbolState {
    const ActiveSymbol* sym = nullptr;
    double alpha = 0.0;
    std::vector<Candidate> cands;
    bool done = false;
  };
  std::vector<SymbolState> state(m);

  const std::size_t max_peaks = 2 * m;

  for (std::size_t i = 0; i < m; ++i) {
    const ActiveSymbol& sym = in.symbols[i];
    const PacketContext& ctx = in.contexts[static_cast<std::size_t>(sym.packet)];
    SymbolState& st = state[i];
    st.sym = &sym;
    st.alpha = ctx.alpha_at(sym.window_start);
    result[i].packet = sym.packet;
    result[i].data_idx = sym.data_idx;

    const SymbolView& view = in.sig->data_symbol(sym.packet, ctx, sym.data_idx);

    // History estimate for this packet (first pass: extrapolated from what
    // has been seen so far; second pass: fitted over the whole packet).
    bool have_hist = false;
    PeakHistory::Estimate est;
    if (opt_.use_history &&
        static_cast<std::size_t>(sym.packet) < in.history.size() &&
        !in.history[static_cast<std::size_t>(sym.packet)].empty()) {
      est = in.history[static_cast<std::size_t>(sym.packet)].estimate_for(
          sym.data_idx, in.second_pass);
      have_hist = true;
    }

    const auto& masks = in.masked_bins[i];
    for (const dsp::Peak& pk : view.peaks) {
      if (st.cands.size() >= max_peaks) break;
      bool masked = false;
      for (double mb : masks) {
        if (std::abs(wrap_half(pk.frac_index - mb, nd)) <= kSiblingTol) {
          masked = true;
          break;
        }
      }
      if (masked) continue;

      Candidate c;
      c.bin = pk.frac_index;
      c.height = pk.value;

      // Sibling cost: the same tone viewed through every other packet's
      // alignment; the owner sees the tallest version.
      double h_star = c.height;
      for (const SiblingWindow& w : sibling_windows(in, i)) {
        const PacketContext& wctx =
            in.contexts[static_cast<std::size_t>(w.packet)];
        const double expected =
            map_bin(c.bin, st.alpha, wctx.alpha_at(w.window_start), n);
        h_star = std::max(
            h_star, sibling_height(in, w, expected, kSiblingTol));
      }
      const double ratio = c.height / h_star;
      c.cost = (1.0 - ratio) * (1.0 - ratio);
      ++stats_.cost_evaluations;

      // History cost (Eq. 2).
      if (have_hist) {
        const double u = est.upper();
        const double l = est.lower();
        double f = 0.0;
        if (c.height > u && c.height > 0.0) {
          const double r = 1.0 - u / c.height;
          f = opt_.omega * r * r;
        } else if (c.height < l && l > 0.0) {
          const double r = 1.0 - c.height / l;
          f = opt_.omega * r * r;
        }
        c.cost += f;
      }
      st.cands.push_back(c);
    }
  }

  // Iterative assignment (paper 5.3.4).
  for (std::size_t iter = 0; iter < m; ++iter) {
    // Global minimum cost among alive candidates of unassigned symbols.
    double min_cost = std::numeric_limits<double>::infinity();
    for (const SymbolState& st : state) {
      if (st.done) continue;
      for (const Candidate& c : st.cands) {
        if (c.alive) min_cost = std::min(min_cost, c.cost);
      }
    }
    if (!std::isfinite(min_cost)) break;  // no assignable peaks remain
    ++stats_.iterations;

    // Select the symbol: unique holder of the min, else fewest min-cost
    // peaks, else lowest index.
    constexpr double kTieTol = 1e-12;
    std::size_t chosen = m;
    std::size_t fewest = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < m; ++i) {
      if (state[i].done) continue;
      std::size_t count = 0;
      for (const Candidate& c : state[i].cands) {
        if (c.alive && c.cost <= min_cost + kTieTol) ++count;
      }
      if (count > 0 && count < fewest) {
        fewest = count;
        chosen = i;
      }
    }
    if (chosen == m) break;

    SymbolState& st = state[chosen];
    Candidate* best = nullptr;
    for (Candidate& c : st.cands) {
      if (c.alive && c.cost <= min_cost + kTieTol) {
        best = &c;
        break;
      }
    }
    st.done = true;
    result[chosen].bin = static_cast<int>(
        floor_mod(static_cast<std::int64_t>(std::lround(best->bin)),
                  static_cast<std::int64_t>(n)));
    result[chosen].height = best->height;

    // Mask the assigned peak's siblings in the remaining symbols.
    for (std::size_t k = 0; k < m; ++k) {
      if (state[k].done) continue;
      const double expected = map_bin(best->bin, st.alpha, state[k].alpha, n);
      for (Candidate& c : state[k].cands) {
        if (c.alive &&
            std::abs(wrap_half(c.bin - expected, nd)) <= kSiblingTol) {
          c.alive = false;
        }
      }
    }
  }

  // Symbols whose candidate lists drained: fall back to the tallest
  // non-masked bin so every symbol still demodulates to something.
  for (std::size_t i = 0; i < m; ++i) {
    if (result[i].bin >= 0) continue;
    ++stats_.fallbacks;
    const ActiveSymbol& sym = in.symbols[i];
    const PacketContext& ctx = in.contexts[static_cast<std::size_t>(sym.packet)];
    const SymbolView& view = in.sig->data_symbol(sym.packet, ctx, sym.data_idx);
    double best_v = -1.0;
    std::size_t best_b = 0;
    for (std::size_t b = 0; b < view.sv.size(); ++b) {
      bool masked = false;
      for (double mb : in.masked_bins[i]) {
        if (std::abs(wrap_half(static_cast<double>(b) - mb, nd)) <=
            kSiblingTol) {
          masked = true;
          break;
        }
      }
      if (!masked && view.sv[b] > best_v) {
        best_v = view.sv[b];
        best_b = b;
      }
    }
    result[i].bin = static_cast<int>(best_b);
    result[i].height = best_v;
  }
  return result;
}

}  // namespace tnb::rx
