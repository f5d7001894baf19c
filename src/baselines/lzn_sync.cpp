#include "baselines/lzn_sync.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_util.hpp"
#include "core/window.hpp"
#include "dsp/peak_finder.hpp"
#include "dsp/smoother.hpp"

namespace tnb::base {
namespace {

/// Sub-symbol window positions per symbol period (the slide granularity;
/// 2 divides every samples-per-symbol, 2^SF * OSF).
constexpr std::size_t kStepsPerSymbol = 2;
/// Accumulated-spectrum peaks must exceed this multiple of the noise
/// floor. Lower than Detector's 8: accumulation already buys ~8x.
constexpr double kPeakFloorRatio = 5.0;
/// Minimum consecutive accumulation steps with a matching peak. The
/// slot-support gate below carries the specificity; the run check only
/// rejects one-step flukes.
constexpr std::size_t kMinRun = 3;
/// An accumulated peak only counts when at least this many of its 8
/// contributing slot spectra carry energy at the peak bin. A preamble
/// feeds all 8 slots; a lone collider data symbol (which persists across
/// ~15 overlapping accumulation windows) feeds exactly one.
constexpr int kMinSlotSupport = 6;
/// Per-slot energy (at the peak bin, +/-1) must reach this fraction of
/// the peak's mean slot contribution (value / 8) to count as support.
constexpr double kSlotSupportRatio = 0.2;
/// Maximum peaks tracked per accumulation step.
constexpr std::size_t kMaxPeaksPerStep = 8;
/// |CFO| bound for the half-period branch pick: this many Hz plus one
/// cycle per symbol, as Detector derives it.
constexpr double kMaxCfoHz = 4880.0;
/// Minimum step-2 validation checks (out of 12) to accept a preamble.
constexpr int kMinValidationScore = 8;
/// A validation check must also hold this fraction of its own window's
/// spectrum maximum — the floor ratio alone passes on sidelobe leakage
/// when the noise floor is tiny (high SNR). Far sidelobes of a dominant
/// peak sit near 1e-3 of it; a weak packet under a strong collider
/// (near-far) still holds ~1e-1..1e-2, so 5e-3 separates the two.
constexpr double kValidationDominanceRatio = 5e-3;

/// Noise-floor proxy (same convention as Detector's): the median, kept
/// above a tiny fraction of the maximum so noiseless traces do not make
/// every spectral leak look significant. Allocates nothing once warm.
double noise_floor(std::span<const float> x) {
  thread_local std::vector<double> tmp;
  tmp.assign(x.begin(), x.end());
  const double med = dsp::median_in_place(tmp);
  float mx = 0.0f;
  for (float v : x) mx = std::max(mx, v);
  return std::max({med, static_cast<double>(mx) * 1e-5, 1e-30});
}

double cyclic_dist(double a, double b, double n) {
  return std::abs(wrap_half(a - b, n));
}

}  // namespace

LZnSync::LZnSync(lora::Params p)
    : p_(p),
      max_cfo_cycles_(p.cfo_hz_to_cycles(kMaxCfoHz) + 1.0),
      demod_(p),
      fsync_(p) {
  p_.validate();
}

std::vector<LZnSync::Candidate> LZnSync::find_candidates(
    std::span<const cfloat> trace, lora::Workspace& ws) {
  const std::size_t sps = p_.sps();
  const std::size_t s = kStepsPerSymbol;
  const std::size_t step = sps / s;
  const std::size_t nb = p_.n_bins();
  const double nd = static_cast<double>(nb);

  std::vector<Candidate> candidates;
  if (trace.size() < sps) return candidates;
  const std::size_t n_steps = (trace.size() - sps) / step + 1;
  // Accumulating A_k needs the per-step spectra of positions k .. k+7T: a
  // ring of the last 7*s + 1 steps.
  const std::size_t ring_len = 7 * s + 1;
  std::vector<SignalVector> ring(ring_len);
  std::vector<char> valid(ring_len, 0);
  std::vector<float> acc(nb);

  struct Run {
    std::size_t first = 0;
    std::size_t last = 0;
    double bin = 0.0;         // running (latest) interpolated location
    double power_sum = 0.0;
    double best_frac = 0.0;   // location of the strongest accumulated peak
    double best_power = 0.0;
    std::size_t best_step = 0;
  };
  std::vector<Run> active;

  auto finalize = [&](const Run& r) {
    if (r.last - r.first + 1 < kMinRun) return;
    Candidate c;
    c.w0 = static_cast<double>(r.best_step * step);
    c.x1 = r.best_frac;
    c.power = r.best_power;
    candidates.push_back(c);
  };

  dsp::PeakFinderOptions pf;
  pf.circular = true;
  pf.max_peaks = kMaxPeaksPerStep;
  // A collider can mask up to a symbol of steps; tolerate that gap before
  // retiring a run.
  const std::size_t gap = s + 1;

  for (std::size_t m = 0; m < n_steps; ++m) {
    SignalVector& sv = ring[m % ring_len];
    demod_.signal_vector_into(trace.subspan(m * step, sps), 0.0, /*up=*/true,
                              ws, sv);
    bool ok = true;
    for (float v : sv) {
      if (!std::isfinite(v)) {
        ok = false;
        break;
      }
    }
    valid[m % ring_len] = ok ? 1 : 0;
    if (m + 1 < ring_len) continue;  // window span not yet full

    const std::size_t k = m - 7 * s;  // accumulation anchored at step k
    std::fill(acc.begin(), acc.end(), 0.0f);
    bool all_valid = true;
    for (std::size_t j = 0; j < 8; ++j) {
      const std::size_t slot = (k + j * s) % ring_len;
      if (!valid[slot]) {
        all_valid = false;
        break;
      }
      const SignalVector& part = ring[slot];
      for (std::size_t b = 0; b < nb; ++b) acc[b] += part[b];
    }

    std::vector<dsp::Peak> peaks;
    if (all_valid) {
      const double floor = noise_floor(acc);
      if (std::isfinite(floor)) {
        pf.sel = 4.0 * floor;
        pf.use_threshold = true;
        pf.threshold = kPeakFloorRatio * floor;
        peaks = dsp::find_peaks(acc, pf);
      }
    }

    // Slot-support gate: a preamble peak draws on all 8 accumulated slots;
    // a collider data symbol — which survives in ~2*8*s overlapping
    // accumulation windows and would otherwise fake a long run — draws on
    // exactly one. Keep only peaks most slots vouch for.
    std::erase_if(peaks, [&](const dsp::Peak& pk) {
      const double need = kSlotSupportRatio * pk.value / 8.0;
      int support = 0;
      for (std::size_t j = 0; j < 8; ++j) {
        const SignalVector& part = ring[(k + j * s) % ring_len];
        double e = 0.0;
        for (int d = -1; d <= 1; ++d) {
          const std::size_t b = static_cast<std::size_t>(
              floor_mod(static_cast<std::int64_t>(pk.index) + d,
                        static_cast<std::int64_t>(nb)));
          e = std::max(e, static_cast<double>(part[b]));
        }
        if (e >= need) ++support;
      }
      return support < kMinSlotSupport;
    });

    for (const dsp::Peak& pk : peaks) {
      const double loc = pk.frac_index;
      bool matched = false;
      for (Run& r : active) {
        if (r.last + gap < k) continue;
        if (r.last == k) continue;  // already extended this step
        if (cyclic_dist(r.bin, loc, nd) <= 1.5) {
          r.last = k;
          r.bin = loc;
          r.power_sum += pk.value;
          if (pk.value > r.best_power) {
            r.best_power = pk.value;
            r.best_frac = loc;
            r.best_step = k;
          }
          matched = true;
          break;
        }
      }
      if (!matched) {
        Run r;
        r.first = r.last = k;
        r.bin = loc;
        r.power_sum = pk.value;
        r.best_frac = loc;
        r.best_power = pk.value;
        r.best_step = k;
        active.push_back(r);
      }
    }
    // Retire runs that fell out of the gap tolerance.
    std::vector<Run> still;
    for (const Run& r : active) {
      if (r.last + gap >= k) {
        still.push_back(r);
      } else {
        finalize(r);
      }
    }
    active = std::move(still);
  }
  for (const Run& r : active) finalize(r);

  // Strongest candidates first; bound the resolve work on hostile traces.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.power > b.power;
            });
  if (candidates.size() > 16) candidates.resize(16);
  return candidates;
}

std::pair<double, double> LZnSync::energy_at(std::span<const cfloat> trace,
                                             double start, double cfo_cycles,
                                             std::size_t bin, bool up,
                                             lora::Workspace& ws) const {
  const std::size_t sps = p_.sps();
  const std::size_t n = p_.n_bins();
  auto& window = ws.iq_scratch(0);
  window.resize(sps);
  rx::extract_window(trace, start, window);
  SignalVector& sv = ws.sv_scratch(0);
  demod_.signal_vector_into(window, cfo_cycles, up, ws, sv);
  const double floor = noise_floor(sv);
  double e = 0.0;
  for (int d = -1; d <= 1; ++d) {
    const std::size_t b =
        static_cast<std::size_t>(floor_mod(static_cast<std::int64_t>(bin) + d,
                                           static_cast<std::int64_t>(n)));
    e = std::max(e, static_cast<double>(sv[b]));
  }
  double mx = 0.0;
  for (float v : sv) mx = std::max(mx, static_cast<double>(v));
  return {e / floor, mx > 0.0 ? e / mx : 0.0};
}

void LZnSync::resolve(std::span<const cfloat> trace, const Candidate& cand,
                      lora::Workspace& ws,
                      std::vector<rx::DetectedPacket>& out) const {
  const std::size_t sps = p_.sps();
  const double n = static_cast<double>(p_.n_bins());
  const double osf = static_cast<double>(p_.osf);
  const std::size_t w0i = static_cast<std::size_t>(cand.w0);

  // Downchirp peak hypotheses (x2) in symbol-length windows after the
  // accumulated run — same alignment class as w0, so (x1+x2)/2 still
  // isolates eps.
  dsp::PeakFinderOptions pf;
  pf.circular = true;
  pf.max_peaks = 4;
  struct DownHyp {
    double x2 = 0.0;
    double height = 0.0;
  };
  std::vector<DownHyp> hyps;
  SignalVector& sv = ws.sv_scratch(0);
  for (std::size_t m = 7; m <= 13; ++m) {
    const std::size_t start = w0i + m * sps;
    if (start + sps > trace.size()) break;
    demod_.signal_vector_into(trace.subspan(start, sps), 0.0, /*up=*/false,
                              ws, sv);
    bool ok = true;
    for (float v : sv) {
      if (!std::isfinite(v)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    const double floor = noise_floor(sv);
    pf.use_threshold = true;
    pf.threshold = kPeakFloorRatio * floor;
    for (const dsp::Peak& pk : dsp::find_peaks(sv, pf)) {
      bool merged = false;
      for (DownHyp& h : hyps) {
        if (cyclic_dist(h.x2, pk.frac_index, n) <= 1.0) {
          if (pk.value > h.height) {
            h.height = pk.value;
            h.x2 = pk.frac_index;
          }
          merged = true;
          break;
        }
      }
      if (!merged) {
        hyps.push_back({pk.frac_index, static_cast<double>(pk.value)});
      }
    }
  }
  if (hyps.empty()) return;  // no downchirp anywhere: not a LoRa preamble
  std::sort(hyps.begin(), hyps.end(),
            [](const DownHyp& a, const DownHyp& b) {
              return a.height > b.height;
            });
  if (hyps.size() > 6) hyps.resize(6);

  int best_score = -1;
  double best_t0 = 0.0, best_eps = 0.0, best_strength = 0.0;
  for (const DownHyp& hyp : hyps) {
    // Step 3: x1 = delta + eps, x2 = -delta + eps (mod N); (x1+x2)/2 gives
    // eps up to an N/2 ambiguity that the CFO bound resolves.
    const double sum = floor_mod((cand.x1 + hyp.x2) / 2.0, n / 2.0);
    double eps = wrap_half(sum, n / 2.0);
    if (std::abs(eps) > max_cfo_cycles_) {
      const double alt = eps > 0 ? eps - n / 2.0 : eps + n / 2.0;
      if (std::abs(alt) > max_cfo_cycles_) continue;
      eps = alt;
    }
    const double delta = floor_mod(cand.x1 - eps, n);  // chirp samples

    // 12-point validation at +/-2 symbol shifts (8 upchirps at bin 0, the
    // two sync words, both downchirps).
    const double t0_prelim = cand.w0 - delta * osf;
    for (int j = -2; j <= 2; ++j) {
      const double t0 =
          t0_prelim + static_cast<double>(j) * static_cast<double>(sps);
      if (t0 < -0.5) continue;
      int score = 0;
      double strength = 0.0;
      // A check passes on the floor ratio AND on a share of its window's
      // spectrum maximum: at high SNR the floor is tiny and the sidelobes
      // of a strong peak elsewhere would otherwise validate a misplaced
      // hypothesis 12/12.
      auto check = [&](double sym_idx, std::size_t bin, bool up) {
        const double start = t0 + sym_idx * static_cast<double>(sps);
        if (start + static_cast<double>(sps) >
            static_cast<double>(trace.size())) {
          return;
        }
        const auto [rel, dom] = energy_at(trace, start, eps, bin, up, ws);
        if (rel >= kPeakFloorRatio && dom >= kValidationDominanceRatio) {
          ++score;
          strength += rel;
        }
      };
      for (int m = 0; m < 8; ++m) check(m, 0, true);
      check(8.0, lora::kSyncShift1, true);
      check(9.0, lora::kSyncShift2, true);
      check(10.0, 0, false);
      check(11.0, 0, false);
      if (score > best_score ||
          (score == best_score && strength > best_strength)) {
        best_score = score;
        best_t0 = t0;
        best_eps = eps;
        best_strength = strength;
      }
      if (best_score == 12) break;
    }
    if (best_score == 12) break;
  }
  if (best_score < kMinValidationScore) return;

  rx::DetectedPacket pkt;
  pkt.t0 = best_t0;
  pkt.cfo_cycles = best_eps;
  pkt.strength = best_strength;
  pkt.validation_score = best_score;
  out.push_back(pkt);
}

std::vector<rx::DetectedPacket> LZnSync::sync(std::span<const cfloat> trace) {
  std::vector<rx::DetectedPacket> out;
  if (trace.size() < p_.sps()) return out;
  lora::Workspace ws(p_);

  const std::vector<Candidate> candidates = find_candidates(trace, ws);
  for (const Candidate& cand : candidates) {
    resolve(trace, cand, ws, out);
  }
  std::sort(out.begin(), out.end(),
            [](const rx::DetectedPacket& a, const rx::DetectedPacket& b) {
              return a.t0 < b.t0;
            });

  // Deduplicate along the timing/CFO ambiguity line (same convention as
  // Detector: shifting t0/OSF and the CFO together leaves upchirps
  // invariant, so near-coincident detections on that line are one packet).
  std::vector<rx::DetectedPacket> dedup;
  const double t_tol = 1.25 * static_cast<double>(p_.sps());
  const double nd = static_cast<double>(p_.n_bins());
  for (const rx::DetectedPacket& pkt : out) {
    bool merged = false;
    for (rx::DetectedPacket& kept : dedup) {
      const double dt_bins = (pkt.t0 - kept.t0) / static_cast<double>(p_.osf);
      const double dcfo = pkt.cfo_cycles - kept.cfo_cycles;
      if (std::abs(kept.t0 - pkt.t0) < t_tol &&
          std::abs(wrap_half(dt_bins + dcfo, nd)) < 2.0) {
        if (pkt.validation_score > kept.validation_score ||
            (pkt.validation_score == kept.validation_score &&
             pkt.strength > kept.strength)) {
          kept = pkt;
        }
        merged = true;
        break;
      }
    }
    if (!merged) dedup.push_back(pkt);
  }

  for (rx::DetectedPacket& det : dedup) {
    const rx::FracSyncResult r =
        fsync_.refine(trace, det.t0, det.cfo_cycles, ws);
    // Trust the refinement only under the Q* gate, like the built-in
    // front end: an interferer can steer the ungated fallback.
    if (r.gated) {
      det.t0 += r.dt;
      det.cfo_cycles += r.df;
    }
  }
  return dedup;
}

}  // namespace tnb::base
