// Fractional timing / CFO estimation (paper Section 7, step 4).
//
// After coarse synchronization the residual timing error is below one
// receiver sample and the residual CFO below one bin. The estimator
// evaluates Q(dt, df) — the coherent peak energy of the preamble when the
// windows are shifted by dt receiver samples and the CFO correction is
// offset by df cycles — over a three-phase search of 17 + 10 + (OSF+1)
// points, exploiting that Q is high along the correct-CFO line (possibly
// off by +/-1 cycle) and that Q* (Q gated on the peaks being at location 1)
// rejects the off-by-one lines.
//
// refine() computes each transform once. Phases 2 and 3 visit window
// starts t0 + dt within 1.5 samples of t0; extract_window interpolates
// linearly between the integer starts floor(s) and floor(s) + 1, and
// dechirp and FFT are linear, so the spectra at s = i + theta are
// (1 - theta) S(i) + theta S(i + 1) with extract_window's float weights.
// refine() therefore dechirps and transforms the 10 preamble windows once
// per integer start the search needs (at most five), at the df* line,
// keeping only the bins fold() reads. The df* + 1 line is one more whole
// cycle of CFO correction: the same spectra read one bin up. Callers use
// only the chosen point, so refine() does not evaluate the objective there
// again; q() at (dt, df) gives its exact value. When the Q* gate never
// passes, refine keeps the coarse estimate (dt = df = 0, gated = false).
// The test oracle testing::reference_refine runs the same search over q()
// at every point; refine must take each of its gated decisions bit for bit
// (tests/test_frac_sync_reference.cpp).
#pragma once

#include <span>

#include "common/types.hpp"
#include "lora/demodulator.hpp"
#include "lora/params.hpp"

namespace tnb::rx {

struct FracSyncResult {
  double dt = 0.0;      ///< timing refinement, receiver samples
  double df = 0.0;      ///< CFO refinement, cycles per symbol
  bool gated = true;    ///< false if the Q* gate never passed (dt = df = 0)
};

class FracSync {
 public:
  explicit FracSync(lora::Params p);

  /// Refines (t0, cfo) of a coarsely-synchronized packet whose preamble
  /// starts at `t0` in `trace`. Add the returned dt/df to the coarse
  /// values. `ws` supplies all scratch (general slots 0 and 2-5 and SV
  /// slots 0-1 are clobbered).
  FracSyncResult refine(std::span<const cfloat> trace, double t0,
                        double cfo_cycles, lora::Workspace& ws) const;

  /// The exact search objective (exposed for tests and the Fig. 8 bench).
  /// Returns the preamble peak energy; if `gate` is set, returns 0 unless
  /// both the upchirp-sum and downchirp-sum peaks are at bin 0. `ws` is
  /// clobbered as by refine().
  double q(std::span<const cfloat> trace, double t0, double cfo_cycles,
           double dt, double df, bool gate, lora::Workspace& ws) const;

 private:
  /// Extracts the 10 preamble windows (8 up, 2 down) starting at `start`
  /// into workspace slot 0 and dechirps + transforms them there in place
  /// at the CFO correction `cfo`.
  void transform_preamble(std::span<const cfloat> trace, double start,
                          double cfo, lora::Workspace& ws) const;

  lora::Params p_;
  lora::Demodulator demod_;
};

}  // namespace tnb::rx
