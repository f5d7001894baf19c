// CIC — Concurrent Interference Cancellation (Shahid et al., SIGCOMM 2021),
// reimplemented around its core idea.
//
// Within a target symbol's window, interfering packets' symbol boundaries
// cut the window into sub-windows. The target's dechirped tone keeps the
// same frequency across all of them (its chirp is continuous over the whole
// window), while every interferer's tone changes frequency at its own
// boundary. CIC therefore computes the spectrum of each sufficiently-long
// sub-window and keeps, per bin, the *minimum* normalized energy across
// sub-windows: interferers are cancelled because their energy moves, and
// the target bin survives the intersection.
#pragma once

#include "core/assign.hpp"
#include "lora/params.hpp"

namespace tnb::base {

class CicAssigner final : public rx::PeakAssigner {
 public:
  explicit CicAssigner(lora::Params p);

  std::vector<rx::Assignment> assign(const rx::AssignInput& in) override;

 private:
  /// Folded, max-normalized spectrum of trace[a, b) dechirped as part of
  /// the target symbol starting at `w_start` with CFO `cfo`.
  SignalVector subwindow_spectrum(const rx::AssignInput& in, double w_start,
                                  double a, double b, double cfo) const;

  lora::Params p_;
};

}  // namespace tnb::base
