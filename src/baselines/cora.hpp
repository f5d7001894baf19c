// CoRa — low-complexity collision-resistant symbol decision (Álamos et al.,
// PAPERS.md), reimplemented as a PeakAssigner peer of CicAssigner and
// AlignTrackStar.
//
// Where Thrive ranks peaks by the cross-packet sibling cost (O(M^2) signal
// vectors per checking point) and CIC re-FFTs sub-windows, CoRa decides each
// symbol from its own cached signal vector alone: the transmitted tone spans
// the full symbol window, so its peak amplitude matches the amplitude the
// node's preamble promised, while an interferer whose symbol boundary
// crosses the window contributes a *pair* of fragment tones whose amplitudes
// split as f : (1-f) at the boundary fraction f. CoRa eliminates
// amplitude-consistent fragment pairs, then picks the surviving peak whose
// amplitude is closest to the expectation from the peak-height history.
// Everything it consults (cached symbol view, boundary geometry, history) is
// already at hand — no extra spectra, hence "low complexity".
//
// assign_with_confidence exposes a per-symbol confidence in [0, 1] (how
// cleanly the amplitude match singled out one peak), which the CoRa->TnB
// hybrid (hybrid.hpp) uses to escalate only doubtful symbols to Thrive.
#pragma once

#include "core/assign.hpp"
#include "lora/params.hpp"

namespace tnb::base {

class CoRaDetector final : public rx::PeakAssigner {
 public:
  explicit CoRaDetector(lora::Params p);

  std::vector<rx::Assignment> assign(const rx::AssignInput& in) override;

  /// Like assign(), additionally writing one confidence in [0, 1] per
  /// symbol into `confidence` (resized to in.symbols.size()).
  std::vector<rx::Assignment> assign_with_confidence(
      const rx::AssignInput& in, std::vector<double>& confidence);

 private:
  lora::Params p_;
};

}  // namespace tnb::base
