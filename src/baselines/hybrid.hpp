// CoRa->TnB hybrid assignment: CoRa's cheap amplitude decision first,
// Thrive's full peak-matching cost only as the arbiter for symbols CoRa is
// not confident about.
//
// CoRa reads one cached signal vector per symbol; Thrive evaluates up to
// 2M^2 cross-packet sibling costs per checking point. The hybrid keeps
// Thrive's accuracy where it matters (ambiguous, collided symbols) at
// CoRa's cost where it does not (symbols with one clean amplitude match) —
// a composition the TnB paper never evaluated (ISSUE 7).
#pragma once

#include "baselines/cora.hpp"
#include "core/thrive.hpp"
#include "lora/params.hpp"

namespace tnb::base {

/// Work counters for the escalation split (bench/eval reporting).
struct HybridStats {
  std::size_t calls = 0;      ///< checking points processed
  std::size_t symbols = 0;    ///< total symbols decided
  std::size_t escalated = 0;  ///< symbols re-decided by Thrive
};

class HybridAssigner final : public rx::PeakAssigner {
 public:
  explicit HybridAssigner(lora::Params p);

  std::vector<rx::Assignment> assign(const rx::AssignInput& in) override;

  const HybridStats& stats() const { return stats_; }

 private:
  CoRaDetector cora_;
  rx::Thrive thrive_;
  HybridStats stats_;
};

}  // namespace tnb::base
