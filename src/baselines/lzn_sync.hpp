// LZn-style collision-robust frame synchronization (Álamos et al.,
// PAPERS.md), implemented as an rx::FrameSync front end — a drop-in
// alternative to the receiver's built-in Detector + FracSync block
// (selected by ReceiverOptions::sync).
//
// Where Detector demodulates each symbol-length window once and calls a
// preamble from a run of matching peaks, LZn slides the window at a
// sub-symbol step and non-coherently ACCUMULATES the folded spectra of the
// 8 preamble-upchirp positions: A_k = sum_{j=0..7} SV(k + j*T). All eight
// upchirps share one dechirp bin, so the accumulation grows the preamble
// peak ~8x while a collider's data symbols (whose bins change every T)
// stay spread — the SNR headroom that lets a weak preamble surface under a
// strong collider. The accumulated peak is then resolved exactly like the
// paper's step 3 (downchirp hypotheses -> eps/delta -> 12-point validation
// at +/-2 symbol shifts) and polished by FracSync, so the returned
// detections feed the unchanged checking-point walk.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/frac_sync.hpp"
#include "core/frame_sync.hpp"
#include "lora/demodulator.hpp"
#include "lora/params.hpp"

namespace tnb::base {

class LZnSync final : public rx::FrameSync {
 public:
  explicit LZnSync(lora::Params p);

  std::vector<rx::DetectedPacket> sync(
      std::span<const cfloat> trace) override;

 private:
  struct Candidate {
    double w0 = 0.0;    ///< trace position of the strongest accumulated peak
    double x1 = 0.0;    ///< interpolated accumulated-upchirp peak (bins)
    double power = 0.0;
  };

  /// Slides + accumulates, returning preamble candidates.
  std::vector<Candidate> find_candidates(std::span<const cfloat> trace,
                                         lora::Workspace& ws);

  /// Downchirp hypotheses + step-3 math + 12-point validation for one
  /// candidate (mirrors Detector::resolve_candidate on the finer grid).
  void resolve(std::span<const cfloat> trace, const Candidate& cand,
               lora::Workspace& ws,
               std::vector<rx::DetectedPacket>& out) const;

  /// Peak energy at `bin` (+/-1) of the dechirped window at `start`:
  /// {relative to the spectrum's noise floor, relative to its maximum}.
  std::pair<double, double> energy_at(std::span<const cfloat> trace,
                                      double start, double cfo_cycles,
                                      std::size_t bin, bool up,
                                      lora::Workspace& ws) const;

  lora::Params p_;
  double max_cfo_cycles_;  ///< |CFO| bound for the half-period branch pick
  lora::Demodulator demod_;
  rx::FracSync fsync_;
};

}  // namespace tnb::base
