// Frame-synchronization front-end seam.
//
// The receiver's default front end is Detector (coarse preamble detection,
// paper Section 7 steps 1-3) followed by FracSync (step 4). A FrameSync
// implementation replaces that whole block for one antenna: it receives the
// raw trace and returns fully refined detections, ready for the checking-
// point walk. Baseline synchronizers from the related work (LZn-style
// collision-robust sync, src/baselines/lzn_sync.hpp) plug in here through
// ReceiverOptions::sync, as ReceiverOptions::assigner swaps the
// PeakAssigner.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/detect.hpp"

namespace tnb::rx {

class FrameSync {
 public:
  virtual ~FrameSync() = default;

  /// Detects and synchronizes every packet preamble in `trace`. Returned
  /// detections carry refined (t0, cfo) on the receiver grid, sorted by t0
  /// and deduplicated within the antenna; cross-antenna merging stays the
  /// receiver's job.
  virtual std::vector<DetectedPacket> sync(std::span<const cfloat> trace) = 0;
};

}  // namespace tnb::rx
