// Packet detection (paper Section 7, steps 1-3).
//
// Step 1 finds preambles by looking for peaks at the same bin in several
// consecutive symbol-length windows (the 8 preamble upchirps all produce
// the same misalignment peak). It has two halves: scan() demodulates every
// full symbol window at CFO 0 and keeps its peaks, and run tracking walks
// those peaks in window order. A window's peaks depend on its samples
// alone, so a scan can be built piecewise and shared: the streaming
// receiver scans each window of its stream once, on the global symbol
// grid, and hands slices of that scan to its liveness tracker and to each
// segment's decode. Step 3 combines the upchirp peak location x1
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
#include "dsp/peak_finder.hpp"
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

/// Step 1's result for one symbol window: the peaks of its CFO-0 signal
/// vector above the detector's noise-floor threshold.
using WindowPeaks = std::vector<dsp::Peak>;

struct DetectorOptions {
  /// Minimum step-2 validation checks (out of 12) to accept a preamble.
  int min_validation_score = 8;
};

class Detector {
 public:
  Detector(lora::Params params, DetectorOptions opt = {});

  /// Step 1's scan: the peaks of each full symbol window of `trace`, entry
  /// k for samples [k sps, (k + 1) sps), demodulated at CFO 0 in batches
  /// of 8. Reads no option: a scan depends only on its samples and the
  /// params. The scans of pieces of a trace split at multiples of sps join
  /// to the scan of the whole, bit for bit (tests/test_detect_golden.cpp).
  /// `ws`: general slot 1 and SV slot 0 are clobbered.
  std::vector<WindowPeaks> scan(std::span<const cfloat> trace,
                                lora::Workspace& ws) const;

  /// Detects all preambles in `trace`, given its scan(): one entry per
  /// full symbol window (std::invalid_argument otherwise). Results are
  /// coarse (integer-sample timing, integer-bin CFO with interpolation
  /// refinement); feed them to FracSync for the paper's step-4
  /// refinement. Sorted by t0. `ws` supplies all demodulation scratch
  /// (general slot 0 and SV slot 0 are clobbered).
  /// Each step-2 check window and each downchirp window is demodulated
  /// once per call (DESIGN.md "Hot-path kernels"); nothing is kept
  /// between calls.
  std::vector<DetectedPacket> detect(std::span<const cfloat> trace,
                                     std::span<const WindowPeaks> scan,
                                     lora::Workspace& ws) const;

  /// scan() of `trace`, then detect() over it (general slots 0 and 1 and
  /// SV slot 0 are clobbered).
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

  /// Step 1's run tracking: runs of windows with a peak at one bin.
  std::vector<Candidate> find_runs(std::span<const WindowPeaks> scan) const;

  /// Steps 2+3 for one candidate; returns validated packets (possibly none).
  void resolve_candidate(std::span<const cfloat> trace, const Candidate& cand,
                         lora::Workspace& ws, PassMemo& memo,
                         std::vector<DetectedPacket>& out) const;

  lora::Params p_;
  DetectorOptions opt_;
  lora::Demodulator demod_;
  /// |CFO| bound, cycles per symbol, resolving step 3's half-period
  /// ambiguity (detect.cpp).
  double max_cfo_cycles_;
};

}  // namespace tnb::rx
