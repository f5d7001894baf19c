// The TnB receiver (paper Fig. 3 and Section 4).
//
// Pipeline: detect packets (+ fractional sync) -> walk checking points
// every 2^SF chirp samples, collecting the data symbols that intersect each
// -> hand them to the peak assigner (Thrive by default; AlignTrack* and the
// argmax baseline are drop-in) with known peaks masked -> decode the PHY
// header once its 8 symbols are assigned, then the payload once complete,
// with BEC or the default Hamming decoder. Packets that fail get a second
// pass in which correctly-decoded packets' peaks are masked and the peak
// history is fitted over the whole packet.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/assign.hpp"
#include "core/bec.hpp"
#include "core/detect.hpp"
#include "core/frac_sync.hpp"
#include "core/frame_codec.hpp"
#include "core/frame_sync.hpp"
#include "core/thrive.hpp"
#include "obs/stage_timer.hpp"
#include "sim/metrics.hpp"

namespace tnb::rx {

/// Stop tracking a packet whose header has not resolved after this many
/// data symbols (robustness against false detections). StreamingReceiver
/// bounds a live packet's span by it too.
inline constexpr int kMaxTrackedSymbols = 96;

/// Builds a scheme's peak assigner, or its frame-synchronization front end,
/// for one decode or detect call.
using AssignerCtor = std::unique_ptr<PeakAssigner> (*)(const lora::Params&);
using SyncCtor = std::unique_ptr<FrameSync> (*)(const lora::Params&);

/// The one value that describes a receiver: its scheme (assigner, sync
/// front end, use_bec, two_pass, thrive), frame format and metrics sink. A
/// Receiver has no state set after construction, so a StreamingReceiver or
/// fleet lane built from the same options runs the same scheme.
struct ReceiverOptions {
  bool use_bec = true;      ///< false = default Hamming decoder ("Thrive")
  bool two_pass = true;
  bool use_frac_sync = true;
  DetectorOptions detector;
  ThriveOptions thrive;
  /// Peak assigner, built once per decode. nullptr = Thrive with `thrive`.
  AssignerCtor assigner = nullptr;
  /// Front end, built once per detect call and shared across that call's
  /// antennas: it replaces the built-in Detector + FracSync block and owns
  /// its own refinement (use_frac_sync is ignored). Cross-antenna merging
  /// is unchanged. nullptr = the built-in front end.
  SyncCtor sync = nullptr;
  /// Engaged when set: no header symbols are expected or decoded.
  std::optional<ImplicitHeader> implicit_header;
  /// Frame format of the packets: the paper's (default) or the
  /// gr-lora-sdr wire format (lora/coding.hpp).
  lora::Coding coding = lora::Coding::kPaper;
  /// Observability registry for per-stage timing histograms and decode
  /// counters. nullptr falls back to obs::Registry::global() (resolved at
  /// Receiver construction); when that is also null, instrumentation is
  /// fully disabled and the decode output is bit-identical either way.
  obs::Registry* metrics = nullptr;
  /// Extra labels appended to every metric this receiver (and a
  /// StreamingReceiver wrapping it) registers — the fleet layer passes
  /// {channel, sf} so each lane gets its own metric series. Labels never
  /// affect decode arithmetic; the default (empty) keeps the label-free
  /// single-receiver exposition schema.
  obs::Labels metric_labels;
};

/// Decode counters. Every field accumulates: passing the same object to
/// several decode calls (or merging per-run objects with operator+=) yields
/// the totals, so a segmented/streaming decode reports the same stats as a
/// one-shot decode.
struct ReceiverStats {
  std::size_t detected = 0;
  std::size_t header_ok = 0;
  std::size_t crc_ok = 0;
  std::size_t decoded_first_pass = 0;
  std::size_t decoded_second_pass = 0;
  BecStats bec;
  /// Rescued-codeword count of each decoded packet (paper Fig. 16).
  std::vector<std::size_t> rescued_per_packet;

  /// Merges counters from another decode (parallel sweeps and the fleet's
  /// per-channel aggregation merge per-run stats into one report);
  /// rescued_per_packet is concatenated. Self-merge (`s += s`) doubles
  /// every counter — the concatenation is sized up front so inserting from
  /// our own vector never walks invalidated iterators.
  ReceiverStats& operator+=(const ReceiverStats& o) {
    detected += o.detected;
    header_ok += o.header_ok;
    crc_ok += o.crc_ok;
    decoded_first_pass += o.decoded_first_pass;
    decoded_second_pass += o.decoded_second_pass;
    bec += o.bec;
    const std::size_t n = o.rescued_per_packet.size();
    rescued_per_packet.reserve(rescued_per_packet.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      rescued_per_packet.push_back(o.rescued_per_packet[i]);
    }
    return *this;
  }

  /// One-line JSON, the shared report format of tnb_eval and tnb_streamd
  /// (schema documented in DESIGN.md "Streaming gateway").
  /// rescued_per_packet is summarized as its length and sum.
  std::string to_json() const;
};

class Receiver {
 public:
  explicit Receiver(lora::Params p, ReceiverOptions opt = {});

  /// Decodes a single-antenna trace.
  std::vector<sim::DecodedPacket> decode(std::span<const cfloat> trace,
                                         Rng& rng,
                                         ReceiverStats* stats = nullptr) const;

  /// Decodes a multi-antenna trace (signal vectors summed across antennas;
  /// detection runs on antenna 0).
  std::vector<sim::DecodedPacket> decode_multi(
      std::vector<std::span<const cfloat>> antennas, Rng& rng,
      ReceiverStats* stats = nullptr) const;

  /// Runs detection + fractional sync only. The result can be fed to
  /// decode_with_detections — e.g. to decode the same trace with several
  /// schemes without re-detecting (all schemes share TnB's detector, as in
  /// the paper's methodology). `scan`, when not empty, is Detector::scan
  /// of antenna 0, which the built-in front end then reads instead of
  /// scanning antenna 0 again (options().sync ignores it); a trace shorter
  /// than one symbol has an empty scan either way. The streaming receiver
  /// passes the slice of its stream-wide scan that covers a segment.
  std::vector<DetectedPacket> detect(
      std::vector<std::span<const cfloat>> antennas,
      std::span<const WindowPeaks> scan = {}) const;

  /// Decodes with externally supplied (already refined) detections.
  std::vector<sim::DecodedPacket> decode_with_detections(
      std::vector<std::span<const cfloat>> antennas,
      std::vector<DetectedPacket> detections, Rng& rng,
      ReceiverStats* stats = nullptr) const;

  const lora::Params& params() const { return p_; }
  const ReceiverOptions& options() const { return opt_; }
  /// The frame codec decoding this receiver's packets.
  const FrameCodec& codec() const { return codec_; }

 private:
  struct Instrumentation {
    obs::StageTimer stages;
    obs::CounterRef detected;
    obs::CounterRef header_ok;
    obs::CounterRef crc_ok;
    obs::CounterRef decoded_first_pass;
    obs::CounterRef decoded_second_pass;
  };

  lora::Params p_;
  ReceiverOptions opt_;
  FrameCodec codec_;
  Instrumentation obs_;  ///< null handles when metrics are disabled
};

}  // namespace tnb::rx
