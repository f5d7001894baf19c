// Reference for rx::FracSync::refine: the uncached time-domain search it
// replaced, kept as a test oracle. Every evaluated point of phases 2 and 3
// re-extracts the 10 preamble windows at t0 + dt and runs the exact
// objective FracSync::q on them; phase 1 dechirps and transforms the
// windows at t0 once and accumulates with plain std::complex arithmetic.
// When the Q* gate never passes, it falls back to the ungated objective
// on the phase-2 grid and runs phase 3 ungated; refine() instead keeps the
// coarse estimate, which is all a caller uses then. FracSync::refine must
// take every gated decision (dt, df) this search takes, and agree on
// `gated` (tests/test_frac_sync_reference.cpp).
#pragma once

#include <span>

#include "common/types.hpp"
#include "core/frac_sync.hpp"
#include "lora/params.hpp"

namespace tnb::testing {

/// The search's decision and the objective it reached there.
struct ReferenceRefine {
  double dt = 0.0;     ///< chosen timing refinement, receiver samples
  double df = 0.0;     ///< chosen CFO refinement, cycles per symbol
  double q = 0.0;      ///< best phase-3 objective (gated when `gated`)
  bool gated = true;   ///< false if the Q* gate never passed
};

/// The three-phase search of FracSync::refine over the exact objective.
ReferenceRefine reference_refine(const lora::Params& p,
                                 std::span<const cfloat> trace, double t0,
                                 double cfo_cycles);

}  // namespace tnb::testing
