// Packet detection (paper Section 7, steps 1-3).
//
// Step 1 finds preambles by looking for peaks at the same bin in several
// consecutive symbol-length windows (the 8 preamble upchirps all produce
// the same misalignment peak). Step 3 combines the upchirp peak location x1
// with the downchirp peak location x2 into a coarse timing / CFO estimate
// (timing ~ (x1-x2)/2, CFO ~ (x1+x2)/2, after resolving the half-period
// ambiguity with the CFO bound). Step 2's sanity test slides the start by
// {-2T..2T} and validates that upchirp, sync and downchirp peaks land at
// their expected locations, discarding false preambles.
//
// Step 4 (fractional refinement) lives in frac_sync.hpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "lora/demodulator.hpp"
#include "lora/params.hpp"

namespace tnb::rx {

/// One detected packet, in receiver-grid coordinates.
struct DetectedPacket {
  double t0 = 0.0;          ///< packet start (fractional receiver sample)
  double cfo_cycles = 0.0;  ///< CFO in cycles per symbol
  double strength = 0.0;    ///< mean preamble peak power (detection score)
  int validation_score = 0; ///< how many of the 12 step-2 checks passed
};

struct DetectorOptions {
  /// A signal-vector peak qualifies as a preamble candidate only if it is
  /// at least this many times the vector's median (noise floor proxy).
  double peak_floor_ratio = 8.0;
  /// Minimum consecutive windows with a matching peak to call a preamble.
  std::size_t min_run = 5;
  /// Maximum |CFO| in cycles per symbol used to resolve the (x1+x2)/2
  /// half-period ambiguity. Defaults to the +/-4.88 kHz bound of the paper.
  double max_cfo_cycles = 0.0;  ///< 0 = derive from 4.88 kHz and params
  /// Minimum step-2 validation checks (out of 12) to accept a preamble.
  int min_validation_score = 8;
  /// Maximum peaks examined per detection window.
  std::size_t max_peaks_per_window = 12;
};

class Detector {
 public:
  Detector(lora::Params params, DetectorOptions opt = {});

  /// Detects all preambles in `trace`. Results are coarse (integer-sample
  /// timing, integer-bin CFO with interpolation refinement); feed them to
  /// FracSync for the paper's step-4 refinement. Sorted by t0. `ws`
  /// supplies all demodulation scratch (general slots 0 and 1 and SV slot
  /// 0 are clobbered). Each step-2 check window and each downchirp window
  /// is demodulated once per call (DESIGN.md "Hot-path kernels"); nothing
  /// is kept between calls.
  std::vector<DetectedPacket> detect(std::span<const cfloat> trace,
                                     lora::Workspace& ws) const;

 private:
  struct Candidate {
    std::size_t first_window = 0;
    std::size_t run_len = 0;
    double x1 = 0.0;  ///< interpolated upchirp peak location (bins)
    double mean_power = 0.0;
  };

  /// Demodulation results shared within one detect() call (detect.cpp).
  struct PassMemo;

  std::vector<Candidate> find_runs(std::span<const cfloat> trace,
                                   lora::Workspace& ws) const;

  /// Steps 2+3 for one candidate; returns validated packets (possibly none).
  void resolve_candidate(std::span<const cfloat> trace, const Candidate& cand,
                         lora::Workspace& ws, PassMemo& memo,
                         std::vector<DetectedPacket>& out) const;

  lora::Params p_;
  DetectorOptions opt_;
  lora::Demodulator demod_;
};

}  // namespace tnb::rx
