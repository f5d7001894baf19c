// StreamingReceiver: the offline tnb::rx::Receiver as a continuous gateway
// pipeline with bounded memory (paper Fig. 3, run on a flowing stream).
//
// Chunks of arbitrary size are assembled into a sliding window that always
// starts on a symbol boundary of the global sample grid. An incremental
// detection pass (the receiver's own Detector, run with a slightly more
// permissive validation gate) tracks live packets across chunk boundaries.
// Detection's step-1 scan (Detector::scan) runs once per symbol window of
// the stream, on that grid: the liveness pass and every segment's
// detection read slices of the one scan, and its entries retire with their
// samples. Whenever the window holds at least `window_symbols` of samples,
// the stream is cut at the latest symbol-aligned point that no live
// packet's span crosses, and the finished segment is decoded with the full
// offline Receiver (detection, Thrive, BEC, two-pass). Decoded packets are
// emitted with trace-global sample positions and their samples retire
// immediately.
//
// Because cuts land only on quiet, symbol-aligned points, segment decoding
// is exactly equivalent to one-shot decoding of the whole trace: detection
// windows, checking points, masks and history never span a cut, so the
// decoded packet set is identical for every chunk size (see DESIGN.md
// "Streaming gateway"). When traffic never goes quiet (packets chained
// back-to-back beyond the window), a forced cut bounds memory at the cost
// of the packets straddling it — counted in StreamingStats::forced_cuts.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/detect.hpp"
#include "core/receiver.hpp"
#include "lora/demodulator.hpp"
#include "obs/stage_timer.hpp"
#include "sim/metrics.hpp"
#include "stream/chunk_source.hpp"
#include "stream/ring_buffer.hpp"

namespace tnb::stream {

struct StreamingOptions {
  /// Assembly-window flush target W, in symbols. A segment cut is attempted
  /// once this much IQ is buffered; peak resident IQ stays below 2W
  /// regardless of trace length. Must comfortably exceed one maximum packet
  /// span (preamble + max_packet_symbols) or every cut is forced; the
  /// constructor raises it to that floor when set lower. The default fits
  /// two maximum spans plus the tail guard, so moderate collision clusters
  /// still leave clean cut points.
  std::size_t window_symbols = 320;
  /// Span bound of a live packet whose header is still unknown, in data
  /// symbols. 0 = rx::kMaxTrackedSymbols. Packets longer than this may be
  /// split by a segment cut.
  std::size_t max_packet_symbols = 0;
  /// Seed of the per-segment decode RNG (BEC's sampling fallback).
  std::uint64_t rng_seed = 1;
  /// Accumulate decoded packets for packets() in addition to the callback.
  bool keep_packets = true;
};

/// Per-stage counters of one streaming run, all in samples unless noted.
struct StreamingStats {
  std::size_t samples_in = 0;
  std::size_t chunks = 0;
  std::size_t segments = 0;          ///< decode calls (clean + forced cuts)
  std::size_t forced_cuts = 0;       ///< cuts that may have split a packet
  std::size_t spans_refined = 0;     ///< live spans shrunk via header decode
  std::size_t samples_retired = 0;   ///< decoded-and-released samples
  std::size_t live_packets = 0;      ///< currently tracked detections
  std::size_t peak_live_packets = 0;
  std::size_t high_water_samples = 0;  ///< assembly-window high-water mark
  std::size_t packets_emitted = 0;
  rx::ReceiverStats rx;              ///< merged over all segments

  /// Merges another run's counters (the fleet layer aggregates its
  /// per-(channel, SF) lanes into per-channel and fleet-total objects this
  /// way). Cumulative counters add; the occupancy marks (live_packets,
  /// peak_live_packets, high_water_samples) also add, making the merged
  /// marks the conservative simultaneous-occupancy bound across lanes
  /// rather than an observed joint peak.
  StreamingStats& operator+=(const StreamingStats& o) {
    samples_in += o.samples_in;
    chunks += o.chunks;
    segments += o.segments;
    forced_cuts += o.forced_cuts;
    spans_refined += o.spans_refined;
    samples_retired += o.samples_retired;
    live_packets += o.live_packets;
    peak_live_packets += o.peak_live_packets;
    high_water_samples += o.high_water_samples;
    packets_emitted += o.packets_emitted;
    rx += o.rx;
    return *this;
  }

  /// One-line JSON (same schema as ReceiverStats::to_json for the "rx"
  /// member; documented in DESIGN.md "Streaming gateway").
  std::string to_json() const;
};

class StreamingReceiver {
 public:
  StreamingReceiver(lora::Params p, rx::ReceiverOptions ropt = {},
                    StreamingOptions sopt = {});

  using PacketCallback = std::function<void(const sim::DecodedPacket&)>;
  /// Called for every decoded packet, with start_sample in trace-global
  /// coordinates. Invoked on the thread that calls push_chunk / finish.
  void set_packet_callback(PacketCallback cb) { on_packet_ = std::move(cb); }

  /// Feeds one chunk (any size; large chunks are ingested in window-sized
  /// slices so memory stays bounded even when a whole capture arrives at
  /// once). Decodes and emits whatever segments complete.
  void push_chunk(std::span<const cfloat> chunk);

  /// End of stream: decodes everything still buffered. Idempotent.
  void finish();

  /// Pull loop: drains `src` in `chunk_samples` chunks, then finish().
  /// Returns the total samples consumed.
  std::size_t consume(ChunkSource& src, std::size_t chunk_samples);

  const StreamingStats& stats() const { return st_; }
  const lora::Params& params() const { return p_; }
  const StreamingOptions& options() const { return sopt_; }

  /// Decoded packets accumulated so far (empty if keep_packets is false).
  const std::vector<sim::DecodedPacket>& packets() const { return packets_; }

 private:
  /// One detection being tracked across chunk boundaries, global samples.
  struct LivePacket {
    double t0 = 0.0;
    double cfo_cycles = 0.0;
    double span_start = 0.0;  ///< t0 minus the leading decode margin
    double span_end = 0.0;    ///< conservative end incl. trailing margin
    bool header_tried = false;  ///< span refinement attempted once
  };

  std::size_t align_down(std::size_t x) const { return x - x % p_.sps(); }

  void ingest(std::span<const cfloat> slice);
  void maybe_flush(bool eof);
  /// Scans the complete windows of buf_ that scan_ does not cover yet.
  void extend_scan();
  /// Extends live-packet tracking over newly arrived samples.
  void scan_new_detections();
  /// Shrinks conservative spans to the real packet length by argmax-
  /// demodulating the (checksum-protected) PHY header once its symbols
  /// are buffered. A failed checksum keeps the conservative span.
  void refine_live_spans();
  /// Largest aligned cut c in [sps, limit] no live span crosses; 0 = none.
  std::size_t best_clean_cut(std::size_t limit) const;
  /// Decodes buf_[0, cut) as one segment, emits, retires the samples.
  void decode_segment(std::size_t cut);

  lora::Params p_;
  StreamingOptions sopt_;
  rx::Receiver rx_;
  rx::Detector live_detector_;  ///< more permissive gate; cut safety only
  lora::Demodulator demod_;     ///< header demod for span refinement
  lora::Workspace ws_;          ///< scratch for live detection + header demod

  IqBuffer buf_;                ///< assembly window
  std::size_t base_ = 0;        ///< global offset of buf_[0]; multiple of sps
  /// Step-1 scan of buf_'s full symbol windows from buf_[0] on (the scan
  /// front may trail buf_'s last complete window until extend_scan()).
  /// Entries retire with their samples.
  std::vector<rx::WindowPeaks> scan_;
  std::size_t det_frontier_ = 0;   ///< global: detections final below this
  std::size_t min_next_attempt_ = 0;  ///< buffered-size throttle on rescans
  std::vector<LivePacket> live_;
  bool finished_ = false;

  std::size_t window_samples_;
  std::size_t tail_guard_samples_;
  std::size_t lookback_samples_;   ///< detection rescan overlap
  std::size_t max_span_samples_;   ///< conservative live-packet span
  std::size_t forced_cut_samples_;  ///< force a cut beyond this backlog

  StreamingStats st_;
  PacketCallback on_packet_;
  std::vector<sim::DecodedPacket> packets_;

  /// tnb_stream_* metrics mirroring StreamingStats (null handles when the
  /// registry — ReceiverOptions::metrics or the global — is disabled).
  struct Instrumentation {
    obs::CounterRef chunks;
    obs::CounterRef samples_in;
    obs::CounterRef segments;
    obs::CounterRef forced_cuts;
    obs::CounterRef spans_refined;
    obs::CounterRef samples_retired;
    obs::CounterRef packets_emitted;
    obs::GaugeRef live_packets;
    obs::GaugeRef peak_live_packets;
    obs::GaugeRef window_samples;
    obs::GaugeRef window_high_water;
    obs::HistogramRef segment_samples;
    obs::HistogramRef segment_decode;
  };
  Instrumentation obs_;
};

/// The two-thread producer/consumer pump behind both gateway pipelines: a
/// producer thread drains `src` into `ring` chunk by chunk (blocking push
/// when `backpressure`, counted drops otherwise), while the calling thread
/// pops chunks, hands each to `consume`, and then calls `on_chunk` (when
/// set) with the running sample total. A throw on either side closes the
/// ring, so the other side winds down: the producer stops reading once the
/// ring is closed, and the consumer drains what is left. The pump then
/// joins the producer and rethrows, the consumer's exception first.
/// Returns the samples consumed.
std::size_t pump(ChunkSource& src, IqRing& ring, std::size_t chunk_samples,
                 bool backpressure,
                 const std::function<void(std::span<const cfloat>)>& consume,
                 const std::function<void(std::size_t samples_consumed)>&
                     on_chunk);

/// Runs the two-thread gateway pipeline: `pump` feeding `rx`, which is then
/// finished. `on_chunk`, when set, is called after each consumed chunk (the
/// daemon's periodic stats hook). Returns samples decoded; rethrows a read
/// or decode failure as `pump` does.
std::size_t run_pipeline(
    ChunkSource& src, IqRing& ring, StreamingReceiver& rx,
    std::size_t chunk_samples, bool backpressure = true,
    const std::function<void(std::size_t samples_consumed)>& on_chunk = {});

}  // namespace tnb::stream
