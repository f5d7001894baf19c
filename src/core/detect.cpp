#include "core/detect.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "common/math_util.hpp"
#include "core/window.hpp"
#include "dsp/peak_finder.hpp"
#include "dsp/smoother.hpp"

namespace tnb::rx {
namespace {

/// A signal-vector peak qualifies as a preamble candidate only if it is at
/// least this many times the vector's noise floor; a step-2 check passes at
/// the same ratio. Like kMaxPeaksPerWindow it is a constant, so a step-1
/// scan depends only on its samples and the params, and any detector may
/// read a shared one.
constexpr double kPeakFloorRatio = 8.0;
/// Minimum consecutive windows with a matching peak to call a preamble.
constexpr std::size_t kMinRun = 5;
/// Maximum peaks step 1 keeps per window.
constexpr std::size_t kMaxPeaksPerWindow = 12;
/// The paper's |CFO| bound; step 3 allows one cycle per symbol more.
constexpr double kMaxCfoHz = 4880.0;

/// Noise-floor proxy of a signal vector: its median, kept above a tiny
/// fraction of the maximum so noiseless traces (unit tests, saturated
/// captures) do not make every spectral leak look significant. The median
/// is selected in place in per-thread scratch, so the per-window call
/// allocates nothing once warm.
double noise_floor(std::span<const float> x) {
  thread_local std::vector<double> tmp;
  tmp.assign(x.begin(), x.end());
  const double med = dsp::median_in_place(tmp);
  float mx = 0.0f;
  for (float v : x) mx = std::max(mx, v);
  return std::max({med, static_cast<double>(mx) * 1e-5, 1e-30});
}

/// Cyclic distance between two bins.
double cyclic_dist(double a, double b, double n) {
  return std::abs(wrap_half(a - b, n));
}

/// Bins the step-2 checks read: preamble up- and downchirps peak at bin 0,
/// the two sync symbols at their shifts.
constexpr std::array<std::size_t, 3> kCheckBins = {0, lora::kSyncShift1,
                                                   lora::kSyncShift2};

}  // namespace

/// Demodulations one detect() call would otherwise repeat. Each key fixes
/// every input of its demodulation, so a hit returns exactly what
/// recomputing would. Holds scalars and peak lists, never signal vectors.
struct Detector::PassMemo {
  /// find_peaks of each CFO-0 downchirp window, by window index, across
  /// all candidates: the x2 search ranges of nearby candidates overlap.
  std::unordered_map<std::size_t, std::vector<dsp::Peak>> down_peaks;

  /// A step-2 check window of the current downchirp hypothesis.
  struct CheckWindow {
    double start = 0.0;  ///< exact fractional start sample (key)
    bool up = true;      ///< dechirp reference (key)
    double floor = 0.0;  ///< noise_floor of its signal vector
    std::array<double, kCheckBins.size()> energy{};  ///< max over bin +-1
  };
  /// Check windows of the current hypothesis (one CFO); cleared for the
  /// next. Shift j's window m is shift j+1's window m-1, but only where
  /// (t0 + j*T) + m*T rounds to the same double, so the key is the exact
  /// start, never the integer j+m.
  std::vector<CheckWindow> checks;
};

Detector::Detector(lora::Params params, DetectorOptions opt)
    : p_(params),
      opt_(opt),
      demod_(params),
      max_cfo_cycles_(p_.cfo_hz_to_cycles(kMaxCfoHz) + 1.0) {
  p_.validate();
}

std::vector<WindowPeaks> Detector::scan(std::span<const cfloat> trace,
                                        lora::Workspace& ws) const {
  ws.reserve(p_);
  const std::size_t sps = p_.sps();
  const std::size_t n_windows = trace.size() / sps;
  std::vector<WindowPeaks> out;
  out.reserve(n_windows);

  dsp::PeakFinderOptions pf;
  pf.circular = true;
  pf.max_peaks = kMaxPeaksPerWindow;

  // Windows go in batches of 8: they are contiguous full-symbol slices of
  // the trace demodulated at CFO 0, so each chunk is one batched
  // dechirp+FFT invocation (slot 1; slot 0 belongs to resolve_candidate),
  // which is bit-identical to transforming them one at a time.
  constexpr std::size_t kScanBatch = 8;
  auto& spectra = ws.iq_scratch(1);
  spectra.resize(kScanBatch * sps);
  SignalVector& sv = ws.sv_scratch(0);
  for (std::size_t k0 = 0; k0 < n_windows; k0 += kScanBatch) {
    const std::size_t batch = std::min(kScanBatch, n_windows - k0);
    demod_.dechirp_fft_batch_into(
        trace.subspan(k0 * sps, batch * sps), batch, 0.0, /*up=*/true, ws,
        std::span<cfloat>(spectra.data(), batch * sps));
    for (std::size_t j = 0; j < batch; ++j) {
      demod_.fold(std::span<const cfloat>(spectra.data() + j * sps, sps), sv);
      const double floor = noise_floor(sv);
      // Selectivity relative to the noise floor: a weak preamble must stay
      // visible next to a strong collider (>20 dB SNR spread, paper Fig. 10).
      pf.sel = 4.0 * floor;
      pf.use_threshold = true;
      pf.threshold = kPeakFloorRatio * floor;
      out.push_back(dsp::find_peaks(sv, pf));
    }
  }
  return out;
}

std::vector<Detector::Candidate> Detector::find_runs(
    std::span<const WindowPeaks> scan) const {
  const double n = static_cast<double>(p_.n_bins());

  struct Run {
    std::size_t first = 0;
    std::size_t last = 0;
    double bin = 0.0;        // running (latest) interpolated location
    double power_sum = 0.0;
    double best_frac = 0.0;  // interpolated location of the strongest peak
    double best_power = 0.0;
  };
  std::vector<Run> active;
  std::vector<Candidate> candidates;

  auto finalize = [&](const Run& r) {
    if (r.last - r.first + 1 < kMinRun) return;
    Candidate c;
    c.first_window = r.first;
    c.run_len = r.last - r.first + 1;
    c.x1 = r.best_frac;
    c.mean_power = r.power_sum / static_cast<double>(c.run_len);
    candidates.push_back(c);
  };

  for (std::size_t k = 0; k < scan.size(); ++k) {
    for (const dsp::Peak& pk : scan[k]) {
      const double loc = pk.frac_index;
      bool matched = false;
      for (Run& r : active) {
        // Tolerate a single missed window (a collider can mask one peak).
        if (r.last + 2 < k) continue;
        if (r.last == k) continue;  // already extended this window
        if (cyclic_dist(r.bin, loc, n) <= 1.5) {
          r.last = k;
          r.bin = loc;
          r.power_sum += pk.value;
          if (pk.value > r.best_power) {
            r.best_power = pk.value;
            r.best_frac = loc;
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
        active.push_back(r);
      }
    }
    // Retire runs that have missed two consecutive windows, in order.
    std::erase_if(active, [&](const Run& r) {
      if (r.last + 2 > k) return false;
      finalize(r);
      return true;
    });
  }
  for (const Run& r : active) finalize(r);
  return candidates;
}

void Detector::resolve_candidate(std::span<const cfloat> trace,
                                 const Candidate& cand, lora::Workspace& ws,
                                 PassMemo& memo,
                                 std::vector<DetectedPacket>& out) const {
  const std::size_t sps = p_.sps();
  const double n = static_cast<double>(p_.n_bins());
  const double osf = static_cast<double>(p_.osf);
  SignalVector& sv = ws.sv_scratch(0);

  // --- Collect downchirp peak hypotheses (x2) after the run. With
  // collided preambles the strongest downchirp in this range can belong to
  // another packet, so every distinct peak location is tried and step-2
  // validation arbitrates. ---
  dsp::PeakFinderOptions pf;
  pf.circular = true;
  pf.max_peaks = 4;
  pf.use_threshold = true;
  struct DownHyp {
    double x2 = 0.0;
    double height = 0.0;
  };
  std::vector<DownHyp> hyps;
  const std::size_t k_lo = cand.first_window + 7;
  const std::size_t k_hi = cand.first_window + 13;
  for (std::size_t k = k_lo; k <= k_hi; ++k) {
    if ((k + 1) * sps > trace.size()) break;
    const auto [peaks, fresh] = memo.down_peaks.try_emplace(k);
    if (fresh) {
      demod_.signal_vector_into(trace.subspan(k * sps, sps), 0.0,
                                /*up=*/false, ws, sv);
      pf.threshold = kPeakFloorRatio * noise_floor(sv);
      peaks->second = dsp::find_peaks(sv, pf);
    }
    for (const dsp::Peak& pk : peaks->second) {
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
      if (!merged) hyps.push_back({pk.frac_index, static_cast<double>(pk.value)});
    }
  }
  if (hyps.empty()) return;  // no downchirp anywhere: not a LoRa preamble
  std::sort(hyps.begin(), hyps.end(),
            [](const DownHyp& a, const DownHyp& b) { return a.height > b.height; });
  if (hyps.size() > 6) hyps.resize(6);

  // Step-2 check window at `start` for the current hypothesis' CFO:
  // demodulated on first use, replayed from the memo afterwards.
  auto check_window = [&](double start, double eps,
                          bool up) -> PassMemo::CheckWindow {
    for (const PassMemo::CheckWindow& w : memo.checks) {
      if (w.start == start && w.up == up) return w;
    }
    auto& window = ws.iq_scratch(0);
    window.resize(sps);
    extract_window(trace, start, window);
    demod_.signal_vector_into(window, eps, up, ws, sv);
    PassMemo::CheckWindow w{.start = start, .up = up, .floor = noise_floor(sv)};
    for (std::size_t i = 0; i < kCheckBins.size(); ++i) {
      for (int d = -1; d <= 1; ++d) {
        const std::size_t b = static_cast<std::size_t>(
            floor_mod(static_cast<std::int64_t>(kCheckBins[i]) + d,
                      static_cast<std::int64_t>(p_.n_bins())));
        w.energy[i] = std::max(w.energy[i], static_cast<double>(sv[b]));
      }
    }
    memo.checks.push_back(w);
    return w;
  };

  int best_score = -1;
  double best_t0 = 0.0, best_eps = 0.0, best_strength = 0.0;
  for (const DownHyp& hyp : hyps) {
    // --- Step 3: coarse CFO and timing from x1, x2. ---
    // x1 = delta + eps, x2 = -delta + eps (mod N). (x1+x2)/2 gives eps up
    // to a N/2 ambiguity; the CFO bound picks the right branch.
    const double s = floor_mod((cand.x1 + hyp.x2) / 2.0, n / 2.0);
    double eps = wrap_half(s, n / 2.0);
    if (std::abs(eps) > max_cfo_cycles_) {
      const double alt = eps > 0 ? eps - n / 2.0 : eps + n / 2.0;
      if (std::abs(alt) > max_cfo_cycles_) continue;
      eps = alt;
    }
    const double delta = floor_mod(cand.x1 - eps, n);  // chirp samples

    // --- Step 2: validate candidate start times at j*T offsets. ---
    memo.checks.clear();
    const double w0 = static_cast<double>(cand.first_window * sps);
    const double t0_prelim = w0 - delta * osf;
    for (int j = -2; j <= 2; ++j) {
      const double t0 =
          t0_prelim + static_cast<double>(j) * static_cast<double>(sps);
      if (t0 < -0.5) continue;
      int score = 0;
      double strength = 0.0;
      // Folded energy near kCheckBins[slot], relative to the noise floor.
      auto check = [&](double sym_idx, std::size_t slot, bool up) {
        const double start = t0 + sym_idx * static_cast<double>(sps);
        if (start + static_cast<double>(sps) >
            static_cast<double>(trace.size())) {
          return;
        }
        const PassMemo::CheckWindow w = check_window(start, eps, up);
        const double rel = w.energy[slot] / w.floor;
        if (rel >= kPeakFloorRatio) {
          ++score;
          strength += rel;
        }
      };
      for (int m = 0; m < 8; ++m) check(m, 0, true);
      check(8.0, 1, true);   // kSyncShift1
      check(9.0, 2, true);   // kSyncShift2
      check(10.0, 0, false);
      check(11.0, 0, false);
      if (score > best_score ||
          (score == best_score && strength > best_strength)) {
        best_score = score;
        best_t0 = t0;
        best_eps = eps;
        best_strength = strength;
      }
      if (best_score == 12) break;  // perfect: no point shifting further
    }
    if (best_score == 12) break;
  }
  if (best_score < opt_.min_validation_score) return;

  DetectedPacket pkt;
  pkt.t0 = best_t0;
  pkt.cfo_cycles = best_eps;
  pkt.strength = best_strength;
  pkt.validation_score = best_score;
  out.push_back(pkt);
}

std::vector<DetectedPacket> Detector::detect(std::span<const cfloat> trace,
                                             lora::Workspace& ws) const {
  return detect(trace, scan(trace, ws), ws);
}

std::vector<DetectedPacket> Detector::detect(std::span<const cfloat> trace,
                                             std::span<const WindowPeaks> scan,
                                             lora::Workspace& ws) const {
  if (scan.size() != trace.size() / p_.sps()) {
    throw std::invalid_argument(
        "Detector::detect: scan must hold one entry per full symbol window");
  }
  ws.reserve(p_);
  std::vector<DetectedPacket> out;
  PassMemo memo;
  for (const Candidate& cand : find_runs(scan)) {
    resolve_candidate(trace, cand, ws, memo, out);
  }
  std::sort(out.begin(), out.end(),
            [](const DetectedPacket& a, const DetectedPacket& b) {
              return a.t0 < b.t0;
            });
  // Deduplicate detections of the same packet: runs can split on a fade,
  // and the timing/CFO ambiguity (shifting both t0/OSF and the CFO by the
  // same amount leaves the upchirp peaks invariant) produces ghosts along
  // the dt/OSF == dcfo line.
  std::vector<DetectedPacket> dedup;
  const double t_tol = 1.25 * static_cast<double>(p_.sps());
  const double nd = static_cast<double>(p_.n_bins());
  for (const DetectedPacket& pkt : out) {
    bool merged = false;
    for (DetectedPacket& kept : dedup) {
      const double dt_bins = (pkt.t0 - kept.t0) / static_cast<double>(p_.osf);
      const double dcfo = pkt.cfo_cycles - kept.cfo_cycles;
      // Two detections whose (timing, CFO) pairs sit on the same upchirp
      // ambiguity line (wrap(dt/OSF + dcfo) ~ 0) describe the same signal.
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
  return dedup;
}

}  // namespace tnb::rx
