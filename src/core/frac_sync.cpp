#include "core/frac_sync.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/window.hpp"

#include "common/aligned.hpp"
#include "common/math_util.hpp"
#include "dsp/fft_backend.hpp"

namespace tnb::rx {
namespace {

// Workspace general-slot layout used by FracSync (and only while a
// FracSync call is running; slots are free for other components between
// calls). Slot 0 holds a 10-window block — preamble spectra during
// phase 1, extracted windows during phases 2/3; slot 4 holds the batched
// spectra eval_preamble derives from the slot-0 windows (kept separate so
// one extraction serves many CFO candidates).
constexpr std::size_t kSlotBlock = 0;
constexpr std::size_t kSlotUpSum = 2;
constexpr std::size_t kSlotDownSum = 3;
constexpr std::size_t kSlotSpectra = 4;

/// Preamble windows entering Q: 8 upchirps plus the 2 full downchirps.
constexpr std::size_t kQWindows = lora::kPreambleUpchirps + 2;

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

/// The coherent sums feed only Demodulator::fold, which reads bins
/// [0, N) and their oversampling image [sps - N, sps) (N = 2^SF; the two
/// ranges are one at OSF 1). Bins between them are neither zeroed nor
/// accumulated. Each bin is independent and both ranges start on a whole
/// SIMD chunk (N >= 32), so every read bin gets the arithmetic of a
/// full-length accumulation on every backend.
void clear_folded_bins(common::aligned_vector<cfloat>& sum, std::size_t n,
                       std::size_t sps) {
  sum.resize(sps);
  std::fill_n(sum.begin(), n, cfloat{0.0f, 0.0f});
  std::fill_n(sum.data() + (sps - n), n, cfloat{0.0f, 0.0f});
}

/// sum[k] += spec[k] * rot over the folded bins, routed through the
/// active SIMD backend.
void accumulate_folded_bins(const cfloat* spec, cfloat rot, std::size_t n,
                            std::size_t sps, cfloat* sum) {
  const dsp::FftBackend& be = dsp::active_fft_backend();
  be.rotate_accumulate(spec, n, rot, sum);
  if (sps > n) be.rotate_accumulate(spec + (sps - n), n, rot, sum + (sps - n));
}

}  // namespace

FracSync::FracSync(lora::Params p) : p_(p), demod_(p) { p_.validate(); }

void FracSync::extract_preamble(std::span<const cfloat> trace, double start,
                                lora::Workspace& ws) const {
  const std::size_t sps = p_.sps();
  auto& block = ws.iq_scratch(kSlotBlock);
  block.resize(kQWindows * sps);
  for (int m = 0; m < static_cast<int>(lora::kPreambleUpchirps); ++m) {
    extract_window(trace, start + static_cast<double>(m) * static_cast<double>(sps),
                   std::span<cfloat>(block.data() + static_cast<std::size_t>(m) * sps, sps));
  }
  for (int m = 10; m <= 11; ++m) {
    extract_window(trace, start + static_cast<double>(m) * static_cast<double>(sps),
                   std::span<cfloat>(block.data() + static_cast<std::size_t>(m - 2) * sps, sps));
  }
}

FracSync::QEval FracSync::eval_preamble(double theta, double cfo,
                                        lora::Workspace& ws) const {
  const std::size_t sps = p_.sps();
  const std::size_t n = p_.n_bins();
  const cfloat* block = ws.iq_scratch(kSlotBlock).data();
  auto& spectra = ws.iq_scratch(kSlotSpectra);
  auto& up_sum = ws.iq_scratch(kSlotUpSum);
  auto& down_sum = ws.iq_scratch(kSlotDownSum);
  spectra.resize(kQWindows * sps);
  clear_folded_bins(up_sum, n, sps);
  clear_folded_bins(down_sum, n, sps);

  // All 10 spectra in two batched invocations (8 upchirp windows, then
  // the 2 downchirps): one phasor lookup and one forward_batch per
  // direction instead of 10 interleaved single transforms.
  constexpr std::size_t kUp = lora::kPreambleUpchirps;
  demod_.dechirp_fft_batch_into(std::span<const cfloat>(block, kUp * sps), kUp,
                                cfo, /*up=*/true, ws,
                                std::span<cfloat>(spectra.data(), kUp * sps));
  demod_.dechirp_fft_batch_into(
      std::span<const cfloat>(block + kUp * sps, 2 * sps), 2, cfo,
      /*up=*/false, ws,
      std::span<cfloat>(spectra.data() + kUp * sps, 2 * sps));

  for (int m = 0; m < static_cast<int>(kUp); ++m) {
    accumulate_folded_bins(spectra.data() + static_cast<std::size_t>(m) * sps,
                           symbol_phase(cfo, m), n, sps, up_sum.data());
  }
  for (int m = 10; m <= 11; ++m) {
    accumulate_folded_bins(
        spectra.data() + static_cast<std::size_t>(m - 2) * sps,
        symbol_phase(cfo, m), n, sps, down_sum.data());
  }

  SignalVector& up_sv = ws.sv_scratch(0);
  SignalVector& down_sv = ws.sv_scratch(1);
  demod_.fold(up_sum, up_sv);
  demod_.fold(down_sum, down_sv);
  const std::size_t up_peak = lora::Demodulator::argmax(up_sv);
  const std::size_t down_peak = lora::Demodulator::argmax(down_sv);
  const double gain = interp_gain(theta, p_.osf);
  QEval e;
  e.value = (static_cast<double>(up_sv[up_peak]) +
             static_cast<double>(down_sv[down_peak])) /
            gain;
  e.gate_pass = up_peak == 0 && down_peak == 0;
  return e;
}

double FracSync::q(std::span<const cfloat> trace, double t0, double cfo_cycles,
                   double dt, double df, bool gate) const {
  thread_local lora::Workspace tls_ws;
  lora::Workspace& ws = tls_ws;
  ws.reserve(p_);
  extract_preamble(trace, t0 + dt, ws);
  const QEval e = eval_preamble(t0 + dt, cfo_cycles + df, ws);
  if (gate && !e.gate_pass) return 0.0;
  return e.value;
}

FracSyncResult FracSync::refine(std::span<const cfloat> trace, double t0,
                                double cfo_cycles) const {
  thread_local lora::Workspace tls_ws;
  return refine(trace, t0, cfo_cycles, tls_ws);
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
  // phases 2-3 use the exact objective).
  auto& spectra = ws.iq_scratch(kSlotBlock);
  spectra.resize(kQWindows * sps);
  {
    // Extract the 10 windows into the block, then dechirp+transform them
    // in place with two batched invocations (split on chirp direction).
    extract_preamble(trace, t0, ws);
    constexpr std::size_t kUp = lora::kPreambleUpchirps;
    const std::span<cfloat> up_rows(spectra.data(), kUp * sps);
    const std::span<cfloat> down_rows(spectra.data() + kUp * sps, 2 * sps);
    demod_.dechirp_fft_batch_into(up_rows, kUp, cfo_cycles, /*up=*/true, ws,
                                  up_rows);
    demod_.dechirp_fft_batch_into(down_rows, 2, cfo_cycles, /*up=*/false, ws,
                                  down_rows);
  }
  double best_q = -1.0, df_star = 0.0;
  {
    auto& up_sum = ws.iq_scratch(kSlotUpSum);
    auto& down_sum = ws.iq_scratch(kSlotDownSum);
    SignalVector& up_sv = ws.sv_scratch(0);
    SignalVector& down_sv = ws.sv_scratch(1);
    for (int i = 0; i <= 16; ++i) {
      const double df = -1.0 + static_cast<double>(i) / 16.0;
      clear_folded_bins(up_sum, n, sps);
      clear_folded_bins(down_sum, n, sps);
      // Same phase-continuity as eval_preamble: the full correction
      // (coarse + df) determines the inter-symbol rotation.
      for (int m = 0; m < static_cast<int>(lora::kPreambleUpchirps); ++m) {
        accumulate_folded_bins(
            spectra.data() + static_cast<std::size_t>(m) * sps,
            symbol_phase(cfo_cycles + df, m), n, sps, up_sum.data());
      }
      for (int m = 10; m <= 11; ++m) {
        accumulate_folded_bins(
            spectra.data() + static_cast<std::size_t>(m - 2) * sps,
            symbol_phase(cfo_cycles + df, m), n, sps, down_sum.data());
      }
      demod_.fold(up_sum, up_sv);
      demod_.fold(down_sum, down_sv);
      const double v =
          static_cast<double>(up_sv[lora::Demodulator::argmax(up_sv)]) +
          static_cast<double>(down_sv[lora::Demodulator::argmax(down_sv)]);
      if (v > best_q) {
        best_q = v;
        df_star = df;
      }
    }
  }

  // Phases 2/3 run through a per-refine evaluation cache. Each (dt, df)
  // point is the exact objective — computed once, remembered with its Q*
  // gate verdict — and for a fixed dt the 10 extracted windows are shared
  // across both CFO lines. The gated -> ungated fallback and the phase-3
  // points that land back on the phase-2 grid are then pure cache hits.
  struct CachedEval {
    double dt, df;
    QEval e;
  };
  std::vector<CachedEval> cache;
  cache.reserve(2 * 5 + static_cast<std::size_t>(p_.osf) + 1);
  double block_dt = 0.0;
  bool block_valid = false;
  auto eval_cached = [&](double dt, double df) -> QEval {
    for (const CachedEval& c : cache) {
      if (c.dt == dt && c.df == df) return c.e;
    }
    if (!block_valid || block_dt != dt) {
      extract_preamble(trace, t0 + dt, ws);
      block_dt = dt;
      block_valid = true;
    }
    const QEval e = eval_preamble(t0 + dt, cfo_cycles + df, ws);
    cache.push_back({dt, df, e});
    return e;
  };

  // Phase 2: 10 points of gated Q* on two CFO lines (df*, df*+1), dt from
  // -1 to 1 receiver samples in steps of 1/2. Evaluation is dt-major so
  // each dt's windows are extracted once for both lines; the best point
  // is then selected in the original line-major order, so exact ties
  // resolve identically to the uncached search.
  for (int i = -2; i <= 2; ++i) {
    for (int line = 0; line < 2; ++line) {
      eval_cached(static_cast<double>(i) / 2.0,
                  df_star + static_cast<double>(line));
    }
  }
  double best_q2 = 0.0, dt_hat = 0.0, df_hat = df_star;
  bool gated = false;
  for (int line = 0; line < 2; ++line) {
    const double df = df_star + static_cast<double>(line);
    for (int i = -2; i <= 2; ++i) {
      const double dt = static_cast<double>(i) / 2.0;
      const QEval e = eval_cached(dt, df);
      const double v = e.gate_pass ? e.value : 0.0;
      if (v > best_q2) {
        best_q2 = v;
        dt_hat = dt;
        df_hat = df;
        gated = true;
      }
    }
  }
  if (!gated) {
    // The Q* gate never passed (heavy collision on the preamble): fall
    // back to the ungated objective on the same grid — all cache hits.
    for (int line = 0; line < 2; ++line) {
      const double df = df_star + static_cast<double>(line);
      for (int i = -2; i <= 2; ++i) {
        const double dt = static_cast<double>(i) / 2.0;
        const QEval e = eval_cached(dt, df);
        if (e.value > best_q2) {
          best_q2 = e.value;
          dt_hat = dt;
          df_hat = df;
        }
      }
    }
  }

  // Phase 3: OSF+1 points along dt in [dt_hat - 1/2, dt_hat + 1/2] at the
  // chosen CFO line. The endpoints and midpoint revisit the phase-2 grid
  // and hit the cache.
  double best_q3 = best_q2, dt_fin = dt_hat;
  for (unsigned i = 0; i <= p_.osf; ++i) {
    const double dt =
        dt_hat - 0.5 + static_cast<double>(i) / static_cast<double>(p_.osf);
    const QEval e = eval_cached(dt, df_hat);
    const double v = gated ? (e.gate_pass ? e.value : 0.0) : e.value;
    if (v > best_q3) {
      best_q3 = v;
      dt_fin = dt;
    }
  }

  FracSyncResult r;
  r.dt = dt_fin;
  r.df = df_hat;
  r.q = best_q3;
  r.gated = gated;
  return r;
}

}  // namespace tnb::rx
