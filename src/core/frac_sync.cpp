#include "core/frac_sync.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/window.hpp"

#include "common/aligned.hpp"
#include "common/math_util.hpp"
#include "dsp/fft_backend.hpp"

namespace tnb::rx {
namespace {

// Workspace general-slot layout used by FracSync (and only while a
// FracSync call is running; slots are free for other components between
// calls). Slot 0 holds a 10-window block, dechirped and transformed in
// place; slots 2 and 3 the coherent sums; slot 4 one window's blended
// folded bins; slot 5 the folded bins of the integer-start spectra.
constexpr std::size_t kSlotBlock = 0;
constexpr std::size_t kSlotUpSum = 2;
constexpr std::size_t kSlotDownSum = 3;
constexpr std::size_t kSlotBlend = 4;
constexpr std::size_t kSlotStarts = 5;

/// Preamble windows entering Q: 8 upchirps plus the 2 full downchirps.
constexpr std::size_t kQWindows = lora::kPreambleUpchirps + 2;

/// Integer window starts phases 2 and 3 can need: every visited start
/// t0 + dt has |dt| <= 1.5, so its floor and floor + 1 lie in
/// [floor(t0) - 2, floor(t0) + 3].
constexpr std::int64_t kStartsBelow = 2;
constexpr std::size_t kStarts = 6;

/// Preamble symbol index of window w: upchirps 0-7, downchirps 10 and 11.
int window_symbol(std::size_t w) {
  const int m = static_cast<int>(w);
  return m < static_cast<int>(lora::kPreambleUpchirps) ? m : m + 2;
}

/// Band-average power gain of the linear interpolator used for fractional
/// window extraction, as a function of the sub-sample offset theta. Q must
/// be normalized by this, or the interpolation loss (maximal at theta=0.5)
/// would bias the timing search toward integer offsets.
double interp_gain(double theta, unsigned osf) {
  theta -= std::floor(theta);
  const double x = kPi / static_cast<double>(osf);
  const double band_mean_cos = osf == 1 ? 0.0 : std::sin(x) / x;
  return (1.0 - theta) * (1.0 - theta) + theta * theta +
         2.0 * theta * (1.0 - theta) * band_mean_cos;
}

/// The inter-symbol phase rotation of preamble symbol m: the dechirped
/// tone carries the CFO phase accumulated since the packet start
/// (2 pi cfo m), and only a correction with the same global phase makes
/// the coherent sum collapse unless cfo is exact — precisely the
/// sensitivity Q relies on. dechirp_fft restarts its phasor per window,
/// so the inter-symbol part is applied here.
cfloat symbol_phase(double cfo, int m) {
  const double ph = -kTwoPi * cfo * static_cast<double>(m);
  return {static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph))};
}

/// The bins of one window's spectrum that Demodulator::fold reads: [0, N)
/// and, above OSF 1, the oversampling image [sps - N, sps) (N = 2^SF).
struct FoldedBins {
  const cfloat* primary;
  const cfloat* image;
};

struct PreamblePeaks {
  float up = 0.0f;         ///< peak of the folded upchirp sum
  float down = 0.0f;       ///< peak of the folded downchirp sum
  bool at_zero = false;    ///< both peaks at bin 0 (the Q* gate)
};

/// One objective evaluation: the ungated value plus the Q* gate verdict.
struct QEval {
  double value = 0.0;
  bool gate_pass = false;
};

/// Coherent sums of the 10 preamble windows under the symbol-phase
/// rotation of the full CFO correction `cfo`, folded, and their peaks.
/// `bins_of(w)` gives window w's folded bins; the pointers need only stay
/// valid until the next call. The sums hold the folded bins alone
/// ([primary | image]), and each bin gets the arithmetic of a full-length
/// accumulation and fold on every backend.
template <class BinsOf>
PreamblePeaks coherent_peaks(const lora::Params& p, BinsOf&& bins_of,
                             double cfo, lora::Workspace& ws) {
  const dsp::FftBackend& be = dsp::active_fft_backend();
  const std::size_t n = p.n_bins();
  const std::size_t image = p.osf == 1 ? 0 : n;
  auto& up_sum = ws.iq_scratch(kSlotUpSum);
  auto& down_sum = ws.iq_scratch(kSlotDownSum);
  up_sum.resize(n + image);
  down_sum.resize(n + image);
  std::fill(up_sum.begin(), up_sum.end(), cfloat{0.0f, 0.0f});
  std::fill(down_sum.begin(), down_sum.end(), cfloat{0.0f, 0.0f});
  for (std::size_t w = 0; w < kQWindows; ++w) {
    const FoldedBins b = bins_of(w);
    const cfloat rot = symbol_phase(cfo, window_symbol(w));
    cfloat* sum =
        w < lora::kPreambleUpchirps ? up_sum.data() : down_sum.data();
    be.rotate_accumulate(b.primary, n, rot, sum);
    if (image != 0) be.rotate_accumulate(b.image, n, rot, sum + n);
  }
  SignalVector& up_sv = ws.sv_scratch(0);
  SignalVector& down_sv = ws.sv_scratch(1);
  up_sv.resize(n);
  down_sv.resize(n);
  be.mag_fold(up_sum.data(), n, image, up_sv.data());
  be.mag_fold(down_sum.data(), n, image, down_sv.data());
  const std::size_t up_peak = lora::Demodulator::argmax(up_sv);
  const std::size_t down_peak = lora::Demodulator::argmax(down_sv);
  return {up_sv[up_peak], down_sv[down_peak], up_peak == 0 && down_peak == 0};
}

}  // namespace

FracSync::FracSync(lora::Params p) : p_(p), demod_(p) { p_.validate(); }

void FracSync::transform_preamble(std::span<const cfloat> trace, double start,
                                  double cfo, lora::Workspace& ws) const {
  const std::size_t sps = p_.sps();
  auto& block = ws.iq_scratch(kSlotBlock);
  block.resize(kQWindows * sps);
  for (std::size_t w = 0; w < kQWindows; ++w) {
    extract_window(trace,
                   start + static_cast<double>(window_symbol(w)) *
                               static_cast<double>(sps),
                   std::span<cfloat>(block.data() + w * sps, sps));
  }
  // Two batched invocations, split on chirp direction: 8 upchirp windows,
  // then the 2 downchirps.
  constexpr std::size_t kUp = lora::kPreambleUpchirps;
  const std::span<cfloat> up_rows(block.data(), kUp * sps);
  const std::span<cfloat> down_rows(block.data() + kUp * sps, 2 * sps);
  demod_.dechirp_fft_batch_into(up_rows, kUp, cfo, /*up=*/true, ws, up_rows);
  demod_.dechirp_fft_batch_into(down_rows, 2, cfo, /*up=*/false, ws,
                                down_rows);
}

double FracSync::q(std::span<const cfloat> trace, double t0, double cfo_cycles,
                   double dt, double df, bool gate, lora::Workspace& ws) const {
  ws.reserve(p_);
  const double start = t0 + dt;
  const double cfo = cfo_cycles + df;
  transform_preamble(trace, start, cfo, ws);
  const std::size_t sps = p_.sps();
  const std::size_t n = p_.n_bins();
  const cfloat* spectra = ws.iq_scratch(kSlotBlock).data();
  const PreamblePeaks pk = coherent_peaks(
      p_,
      [&](std::size_t w) {
        const cfloat* x = spectra + w * sps;
        return FoldedBins{x, x + (sps - n)};
      },
      cfo, ws);
  if (gate && !pk.at_zero) return 0.0;
  return (static_cast<double>(pk.up) + static_cast<double>(pk.down)) /
         interp_gain(start, p_.osf);
}

FracSyncResult FracSync::refine(std::span<const cfloat> trace, double t0,
                                double cfo_cycles, lora::Workspace& ws) const {
  ws.reserve(p_);
  const std::size_t sps = p_.sps();
  const std::size_t n = p_.n_bins();

  // Phase 1: df along dt = 0, from -1 to 0 in steps of 1/16 (17 points),
  // ungated Q. Finds the correct fractional CFO or one off by +/-1.
  //
  // Optimization: the 10 window spectra are computed once; each df
  // candidate only re-weights them by the inter-symbol phase rotation
  // e^{-j 2 pi df m}, which is the term that makes the coherent sum
  // collapse off the correct-CFO line (the intra-symbol scalloping of df
  // affects all candidates' peaks almost equally and is ignored here;
  // phases 2-3 use the full objective).
  transform_preamble(trace, t0, cfo_cycles, ws);
  double best_q = -1.0, df_star = 0.0;
  {
    const cfloat* spectra = ws.iq_scratch(kSlotBlock).data();
    const auto bins = [&](std::size_t w) {
      const cfloat* x = spectra + w * sps;
      return FoldedBins{x, x + (sps - n)};
    };
    for (int i = 0; i <= 16; ++i) {
      const double df = -1.0 + static_cast<double>(i) / 16.0;
      // The full correction (coarse + df) determines the inter-symbol
      // rotation.
      const PreamblePeaks pk = coherent_peaks(p_, bins, cfo_cycles + df, ws);
      const double v =
          static_cast<double>(pk.up) + static_cast<double>(pk.down);
      if (v > best_q) {
        best_q = v;
        df_star = df;
      }
    }
  }

  // Phases 2/3 evaluate Q(dt, df) from the spectra at integer window
  // starts, transformed once each at the df* line and kept at the bins
  // fold reads. Layout of one window's kept bins (stride 2N + 1):
  // c[j] = X[(sps - N + j) mod sps], so line L (df* + L) reads its primary
  // bins at c + N + L and its image at c + L — one more cycle of CFO
  // correction is the same spectrum one bin up.
  const std::size_t stride = 2 * n + 1;
  const double line0_cfo = cfo_cycles + df_star;
  const std::int64_t first_start =
      static_cast<std::int64_t>(std::floor(t0)) - kStartsBelow;
  auto& starts = ws.iq_scratch(kSlotStarts);
  starts.resize(kStarts * kQWindows * stride);
  std::array<bool, kStarts> have{};
  const auto start_bins = [&](std::int64_t i) -> const cfloat* {
    const std::int64_t e = i - first_start;
    if (e < 0 || e >= static_cast<std::int64_t>(kStarts)) {
      throw std::logic_error("FracSync: window start outside the search");
    }
    cfloat* kept =
        starts.data() + static_cast<std::size_t>(e) * kQWindows * stride;
    if (!have[static_cast<std::size_t>(e)]) {
      transform_preamble(trace, static_cast<double>(i), line0_cfo, ws);
      const cfloat* spectra = ws.iq_scratch(kSlotBlock).data();
      for (std::size_t w = 0; w < kQWindows; ++w) {
        const cfloat* x = spectra + w * sps;
        cfloat* c = kept + w * stride;
        std::copy_n(x + (sps - n), n, c);
        std::copy_n(x, n, c + n);
        c[2 * n] = x[n % sps];
      }
      have[static_cast<std::size_t>(e)] = true;
    }
    return kept;
  };

  // Q at window start t0 + dt on line L. Window w starts at
  // s_w = t0 + dt + m_w sps; extract_window would blend the integer-start
  // windows at floor(s_w) and floor(s_w) + 1 with weights (1 - frac, frac),
  // so the same float weights blend their spectra here.
  auto& blend = ws.iq_scratch(kSlotBlend);
  blend.resize(stride);
  const auto point = [&](double dt, int line) -> QEval {
    const double start = t0 + dt;
    const auto bins = [&](std::size_t w) {
      const int m = window_symbol(w);
      const double s = start + static_cast<double>(m) * static_cast<double>(sps);
      const double fl = std::floor(s);
      const float frac = static_cast<float>(s - fl);
      const std::int64_t i = static_cast<std::int64_t>(fl) -
                             static_cast<std::int64_t>(m) *
                                 static_cast<std::int64_t>(sps);
      const cfloat* c = start_bins(i) + w * stride;
      if (frac != 0.0f) {
        const cfloat* b = start_bins(i + 1) + w * stride;
        const float w0 = 1.0f - frac;
        for (std::size_t j = 0; j < stride; ++j) {
          blend[j] = w0 * c[j] + frac * b[j];
        }
        c = blend.data();
      }
      const std::size_t l = static_cast<std::size_t>(line);
      return FoldedBins{c + n + l, c + l};
    };
    const PreamblePeaks pk = coherent_peaks(
        p_, bins, cfo_cycles + (df_star + static_cast<double>(line)), ws);
    QEval e;
    e.value = (static_cast<double>(pk.up) + static_cast<double>(pk.down)) /
              interp_gain(start, p_.osf);
    e.gate_pass = pk.at_zero;
    return e;
  };

  // Phase 2: 10 points of gated Q* on two CFO lines (df*, df*+1), dt from
  // -1 to 1 receiver samples in steps of 1/2.
  double best_q2 = 0.0, dt_hat = 0.0;
  int line_hat = 0;
  bool gated = false;
  for (int line = 0; line < 2; ++line) {
    for (int i = -2; i <= 2; ++i) {
      const double dt = static_cast<double>(i) / 2.0;
      const QEval e = point(dt, line);
      if (e.gate_pass && e.value > best_q2) {
        best_q2 = e.value;
        dt_hat = dt;
        line_hat = line;
        gated = true;
      }
    }
  }
  // The Q* gate never passed (heavy collision on the preamble): keep the
  // coarse estimate. Callers trust a refinement only when it is gated.
  if (!gated) {
    FracSyncResult r;
    r.gated = false;
    return r;
  }

  // Phase 3: OSF+1 points along dt in [dt_hat - 1/2, dt_hat + 1/2] at the
  // chosen CFO line.
  double best_q3 = best_q2, dt_fin = dt_hat;
  for (unsigned i = 0; i <= p_.osf; ++i) {
    const double dt =
        dt_hat - 0.5 + static_cast<double>(i) / static_cast<double>(p_.osf);
    const QEval e = point(dt, line_hat);
    if (e.gate_pass && e.value > best_q3) {
      best_q3 = e.value;
      dt_fin = dt;
    }
  }

  FracSyncResult r;
  r.dt = dt_fin;
  r.df = df_star + static_cast<double>(line_hat);
  r.gated = true;
  return r;
}

}  // namespace tnb::rx
