// Thrive: peak assignment by matching cost (paper Section 5).
//
// For every candidate peak of every symbol at a checking point, Thrive
// computes a matching cost = sibling cost + history cost:
//   * sibling cost  w = (1 - eta/H*)^2, where H* is the tallest height the
//     same physical tone reaches across all packets' aligned signal vectors
//     — the peak "thrives" (is tallest) under its true owner's alignment
//     and CFO correction;
//   * history cost  F (Eq. 2, weight omega) penalizes heights outside the
//     [L, U] band predicted by the node's peak-height history.
// Assignment is iterative: pick the globally cheapest peak (ties: the
// symbol with the fewest minimum-cost peaks), assign it, mask its siblings
// from the remaining symbols, repeat.
#pragma once

#include "core/assign.hpp"
#include "lora/params.hpp"

namespace tnb::rx {

struct ThriveOptions {
  double omega = 0.1;       ///< history-cost weight (paper value)
  bool use_history = true;  ///< false = the paper's "Sibling" configuration
};

/// Work counters, matching the complexity discussion of paper 5.3.5: at a
/// checking point with M symbols, at most 2M^2 peak costs are evaluated and
/// the assignment loop runs at most M iterations.
struct ThriveStats {
  std::size_t calls = 0;            ///< checking points processed
  std::size_t symbols = 0;          ///< total symbols assigned
  std::size_t cost_evaluations = 0; ///< peak matching costs computed
  std::size_t iterations = 0;       ///< assignment-loop iterations
  std::size_t fallbacks = 0;        ///< symbols resolved by argmax fallback
};

class Thrive final : public PeakAssigner {
 public:
  explicit Thrive(lora::Params p, ThriveOptions opt = {});

  std::vector<Assignment> assign(const AssignInput& in) override;

  const ThriveStats& stats() const { return stats_; }

 private:
  lora::Params p_;
  ThriveOptions opt_;
  ThriveStats stats_;
};

}  // namespace tnb::rx
