#include "baselines/hybrid.hpp"

namespace tnb::base {
namespace {

/// Symbols whose CoRa confidence falls below this are re-decided by
/// Thrive. 0 would never escalate (pure CoRa); 1 would always (pure
/// Thrive).
constexpr double kEscalateBelow = 0.7;

}  // namespace

// CoRaDetector validates `p`.
HybridAssigner::HybridAssigner(lora::Params p) : cora_(p), thrive_(p) {}

std::vector<rx::Assignment> HybridAssigner::assign(const rx::AssignInput& in) {
  std::vector<double> confidence;
  std::vector<rx::Assignment> out = cora_.assign_with_confidence(in, confidence);
  ++stats_.calls;
  stats_.symbols += out.size();

  bool any_doubtful = false;
  for (double c : confidence) {
    if (c < kEscalateBelow) {
      any_doubtful = true;
      break;
    }
  }
  if (!any_doubtful) return out;

  // Thrive sees the full checking point (its cost model needs every
  // symbol's peaks anyway); only the doubtful symbols take its verdict.
  const std::vector<rx::Assignment> arbitrated = thrive_.assign(in);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (confidence[i] < kEscalateBelow) {
      out[i] = arbitrated[i];
      ++stats_.escalated;
    }
  }
  return out;
}

}  // namespace tnb::base
