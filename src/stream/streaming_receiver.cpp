#include "stream/streaming_receiver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"

namespace tnb::stream {
namespace {

/// Detection lookahead, in symbols: a cut needs this much signal beyond it
/// so preambles starting just before the cut are already visible. It must
/// cover a full preamble (12.25 T) plus the detector's downchirp search and
/// step-2 shifts (~4 T more); anything shorter could cut through a preamble
/// that is not yet visible (DESIGN.md "Streaming gateway").
constexpr std::size_t kTailGuardSymbols = 20;

/// The liveness detector reuses the receiver's detector configuration with
/// a more permissive validation gate: everything the decode-time detector
/// would accept is strictly contained in what this one reports, so a cut
/// declared quiet by the liveness scan is quiet for the segment decode too.
/// Extra (false) detections only delay cuts; they never break equivalence.
rx::DetectorOptions liveness_options(rx::DetectorOptions opt) {
  opt.min_validation_score = std::max(4, opt.min_validation_score - 2);
  return opt;
}

}  // namespace

std::string StreamingStats::to_json() const {
  // Shared serialization path with ReceiverStats::to_json — schema pinned
  // by tests/test_obs.cpp (StreamingStatsJson).
  obs::JsonWriter w;
  w.begin_object();
  w.field("samples_in", samples_in);
  w.field("chunks", chunks);
  w.field("segments", segments);
  w.field("forced_cuts", forced_cuts);
  w.field("spans_refined", spans_refined);
  w.field("samples_retired", samples_retired);
  w.field("live_packets", live_packets);
  w.field("peak_live_packets", peak_live_packets);
  w.field("high_water_samples", high_water_samples);
  w.field("packets_emitted", packets_emitted);
  w.key("rx").raw(rx.to_json());
  w.end_object();
  return w.take();
}

StreamingReceiver::StreamingReceiver(lora::Params p, rx::ReceiverOptions ropt,
                                     StreamingOptions sopt)
    : p_(p),
      sopt_(sopt),
      rx_(p, ropt),
      live_detector_(p, liveness_options(ropt.detector)),
      demod_(p),
      ws_(p) {
  p_.validate();
  const std::size_t sps = p_.sps();
  const std::size_t max_pkt =
      sopt_.max_packet_symbols != 0
          ? sopt_.max_packet_symbols
          : static_cast<std::size_t>(rx::kMaxTrackedSymbols);
  max_span_samples_ = p_.preamble_samples() + (max_pkt + 2) * sps + 2 * sps;
  tail_guard_samples_ = kTailGuardSymbols * sps;
  // The window must fit one maximum packet span between two clean cuts,
  // plus the tail guard, or every cut would be forced.
  const std::size_t min_window =
      (max_span_samples_ + tail_guard_samples_) / sps + 8;
  sopt_.window_symbols = std::max(sopt_.window_symbols, min_window);
  window_samples_ = sopt_.window_symbols * sps;
  lookback_samples_ = 8 * sps;
  forced_cut_samples_ = window_samples_ + window_samples_ / 4;

  obs::Registry* reg = obs::resolve(ropt.metrics);
  if (reg != nullptr) {
    // Per-lane fleet receivers pass {channel, sf} here; the default (no
    // labels) keeps the single-gateway exposition schema unchanged.
    const obs::Labels& ls = ropt.metric_labels;
    obs_.chunks =
        reg->counter("tnb_stream_chunks_total", "Chunks ingested", ls);
    obs_.samples_in =
        reg->counter("tnb_stream_samples_in_total", "IQ samples ingested", ls);
    obs_.segments = reg->counter("tnb_stream_segments_total",
                                 "Segment decodes (clean + forced cuts)", ls);
    obs_.forced_cuts =
        reg->counter("tnb_stream_forced_cuts_total",
                     "Cuts that may have split a packet", ls);
    obs_.spans_refined =
        reg->counter("tnb_stream_spans_refined_total",
                     "Live spans shrunk via header checksum", ls);
    obs_.samples_retired = reg->counter("tnb_stream_samples_retired_total",
                                        "Decoded-and-released samples", ls);
    obs_.packets_emitted =
        reg->counter("tnb_stream_packets_emitted_total", "Decoded packets", ls);
    obs_.live_packets = reg->gauge("tnb_stream_live_packets",
                                   "Currently tracked detections", ls);
    obs_.peak_live_packets =
        reg->gauge("tnb_stream_peak_live_packets",
                   "Peak simultaneously tracked detections", ls);
    obs_.window_samples = reg->gauge("tnb_stream_window_samples",
                                     "Assembly-window resident IQ samples", ls);
    obs_.window_high_water =
        reg->gauge("tnb_stream_window_high_water_samples",
                   "Assembly-window high-water mark", ls);
    static constexpr double kSegmentBounds[] = {1e3, 4e3,  1.6e4, 6.6e4,
                                                2.6e5, 1.1e6, 4.2e6, 1.7e7};
    obs_.segment_samples =
        reg->histogram("tnb_stream_segment_samples", kSegmentBounds,
                       "Samples per decoded segment", ls);
    obs_.segment_decode =
        reg->histogram("tnb_stream_segment_decode_seconds",
                       obs::duration_bounds(),
                       "Wall-clock seconds per segment decode", ls);
  }
}

void StreamingReceiver::push_chunk(std::span<const cfloat> chunk) {
  if (finished_) {
    throw std::logic_error("StreamingReceiver: push_chunk after finish");
  }
  ++st_.chunks;
  obs_.chunks.inc();
  // Large chunks are ingested in window-sized slices with a flush attempt
  // between them, so a whole capture handed over at once still decodes with
  // O(window) resident IQ.
  const std::size_t slice_max = std::max(p_.sps(), window_samples_ / 2);
  for (std::size_t off = 0; off < chunk.size(); off += slice_max) {
    ingest(chunk.subspan(off, std::min(slice_max, chunk.size() - off)));
  }
}

void StreamingReceiver::ingest(std::span<const cfloat> slice) {
  buf_.insert(buf_.end(), slice.begin(), slice.end());
  st_.samples_in += slice.size();
  st_.high_water_samples = std::max(st_.high_water_samples, buf_.size());
  obs_.samples_in.inc(slice.size());
  obs_.window_samples.set(static_cast<std::int64_t>(buf_.size()));
  obs_.window_high_water.update_max(static_cast<std::int64_t>(buf_.size()));
  maybe_flush(/*eof=*/false);
}

void StreamingReceiver::finish() {
  if (finished_) return;
  finished_ = true;
  maybe_flush(/*eof=*/true);
  live_.clear();
  st_.live_packets = 0;
  obs_.live_packets.set(0);
  obs_.window_samples.set(0);
}

std::size_t StreamingReceiver::consume(ChunkSource& src,
                                       std::size_t chunk_samples) {
  IqBuffer chunk;
  std::size_t total = 0;
  while (src.next(chunk, chunk_samples) > 0) {
    push_chunk(chunk);
    total += chunk.size();
  }
  finish();
  return total;
}

void StreamingReceiver::extend_scan() {
  const std::size_t sps = p_.sps();
  const std::size_t from = scan_.size() * sps;
  const std::size_t to = align_down(buf_.size());
  if (to <= from) return;
  std::vector<rx::WindowPeaks> fresh = live_detector_.scan(
      std::span<const cfloat>(buf_.data() + from, to - from), ws_);
  scan_.insert(scan_.end(), std::make_move_iterator(fresh.begin()),
               std::make_move_iterator(fresh.end()));
}

void StreamingReceiver::scan_new_detections() {
  const std::size_t sps = p_.sps();
  const std::size_t end_g = base_ + buf_.size();
  if (end_g <= tail_guard_samples_) return;
  const std::size_t new_frontier = align_down(end_g - tail_guard_samples_);
  if (new_frontier <= det_frontier_) return;

  // Re-detect a short overlap behind the old frontier: a preamble with t0
  // just past it needs up to two symbols of leading context (the detector's
  // step-2 shifts), and its run's first window can sit 2 T before t0. The
  // overlap's windows are not scanned again: the region starts on the
  // grid, so its scan is a slice of the stream's.
  std::size_t scan_start = base_;
  if (det_frontier_ > lookback_samples_) {
    scan_start = std::max(scan_start, align_down(det_frontier_ - lookback_samples_));
  }
  extend_scan();
  const std::size_t first = (scan_start - base_) / sps;
  const std::span<const cfloat> region(buf_.data() + (scan_start - base_),
                                       buf_.size() - (scan_start - base_));
  const std::vector<rx::DetectedPacket> dets = live_detector_.detect(
      region, std::span(scan_).subspan(first), ws_);
  const double t_tol = 1.25 * static_cast<double>(sps);
  for (const rx::DetectedPacket& det : dets) {
    const double t0g = static_cast<double>(scan_start) + det.t0;
    bool dup = false;
    for (const LivePacket& lp : live_) {
      if (std::abs(lp.t0 - t0g) < t_tol) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    LivePacket lp;
    lp.t0 = t0g;
    lp.cfo_cycles = det.cfo_cycles;
    lp.span_start = t0g - 2.0 * static_cast<double>(sps);
    lp.span_end = t0g + static_cast<double>(max_span_samples_);
    live_.push_back(lp);
  }
  det_frontier_ = new_frontier;
  st_.live_packets = live_.size();
  st_.peak_live_packets = std::max(st_.peak_live_packets, live_.size());
  obs_.live_packets.set(static_cast<std::int64_t>(live_.size()));
  obs_.peak_live_packets.update_max(static_cast<std::int64_t>(live_.size()));
}

void StreamingReceiver::refine_live_spans() {
  const double sps = static_cast<double>(p_.sps());
  const double preamble = static_cast<double>(p_.preamble_samples());
  const double buffered = static_cast<double>(buf_.size());
  const double base = static_cast<double>(base_);
  const std::size_t hsyms = rx_.codec().header_symbols();
  for (LivePacket& lp : live_) {
    if (lp.header_tried) continue;
    if (hsyms == 0) {
      // Implicit header: nothing on-air to refine with; keep conservative.
      lp.header_tried = true;
      continue;
    }
    const double data_start = lp.t0 + preamble - base;
    if (data_start < 0.0) {
      lp.header_tried = true;  // preamble partly retired; keep conservative
      continue;
    }
    // Wait until all header symbols (plus rounding slack) are buffered.
    if (data_start + (static_cast<double>(hsyms) + 1.0) * sps > buffered) {
      continue;
    }
    lp.header_tried = true;

    std::vector<std::uint32_t> hs(hsyms);
    for (std::size_t d = 0; d < hsyms; ++d) {
      const auto w =
          static_cast<std::size_t>(data_start + static_cast<double>(d) * sps + 0.5);
      const std::size_t len =
          std::min<std::size_t>(p_.sps(), buf_.size() - w);
      hs[d] = demod_.demod_bin(std::span<const cfloat>(buf_.data() + w, len),
                               lp.cfo_cycles, ws_);
    }
    // The codec's advisory peek: frame length in data symbols when the
    // header checksum passes on the argmax bins.
    const std::optional<std::size_t> peeked = rx_.codec().peek_frame_symbols(hs);
    if (!peeked.has_value()) continue;

    // The checksum passed: shrink the span to the real packet length plus
    // the ~10-symbol trailing context the segment decoder needs (16 T for
    // margin). Under a collision a garbled argmax header almost always
    // fails the checksum and the conservative span stands.
    const double n_data = static_cast<double>(*peeked);
    const double refined = lp.t0 + preamble + (n_data + 16.0) * sps;
    if (refined < lp.span_end) {
      lp.span_end = refined;
      ++st_.spans_refined;
      obs_.spans_refined.inc();
    }
  }
}

std::size_t StreamingReceiver::best_clean_cut(std::size_t limit) const {
  const std::size_t sps = p_.sps();
  std::size_t c = limit;
  while (c >= sps) {
    const double g = static_cast<double>(base_ + c);
    const LivePacket* blocker = nullptr;
    for (const LivePacket& lp : live_) {
      if (lp.span_start < g && lp.span_end > g) {
        blocker = &lp;
        break;
      }
    }
    if (blocker == nullptr) return c;
    // Jump to just before the blocking packet's span and retry there.
    const double s = blocker->span_start - static_cast<double>(base_);
    if (s <= static_cast<double>(sps)) return 0;
    std::size_t nc = align_down(static_cast<std::size_t>(s));
    if (nc >= c) nc = c - sps;
    c = nc;
  }
  return 0;
}

void StreamingReceiver::maybe_flush(bool eof) {
  const std::size_t sps = p_.sps();
  for (;;) {
    const std::size_t buffered = buf_.size();
    if (!eof) {
      if (buffered < window_samples_) return;
      // A failed cut search is only retried after a few more symbols of
      // signal arrived; rescans stay O(1) per sample even for tiny chunks.
      if (buffered < min_next_attempt_) return;
    } else if (buffered == 0) {
      return;
    }

    std::size_t cut = 0;
    if (eof) {
      cut = buffered;
    } else {
      scan_new_detections();
      refine_live_spans();
      // Only cut where detections are final, with a two-symbol margin so
      // the next segment's detector sees every packet fully inside it.
      const std::size_t safe_end_g = det_frontier_ > 2 * sps
                                         ? det_frontier_ - 2 * sps
                                         : 0;
      if (safe_end_g <= base_ + sps) return;
      const std::size_t limit = align_down(safe_end_g - base_);
      cut = best_clean_cut(limit);
      if (cut == 0) {
        if (buffered >= forced_cut_samples_ && limit >= sps) {
          // Conservative live spans chain past the window. Cut as late as
          // possible: spans overestimate real packets by design, so the
          // latest cut gives every started packet the most trailing
          // context (the decoder needs some 10 symbols past a packet's
          // last data symbol) and usually lands on truly quiet air.
          cut = limit;
          ++st_.forced_cuts;
          obs_.forced_cuts.inc();
        } else {
          min_next_attempt_ = buffered + 4 * sps;
          return;
        }
      }
    }
    decode_segment(cut);
    min_next_attempt_ = 0;
  }
}

void StreamingReceiver::decode_segment(std::size_t cut) {
  const std::span<const cfloat> segment(buf_.data(), cut);
  extend_scan();
  const std::size_t windows = cut / p_.sps();
  Rng rng(sopt_.rng_seed);
  rx::ReceiverStats seg_stats;
  std::vector<sim::DecodedPacket> decoded;
  {
    // Receiver::decode, with the segment's slice of the stream's scan.
    const obs::ScopedSpan span(obs_.segment_decode);
    decoded = rx_.decode_with_detections(
        {segment}, rx_.detect({segment}, std::span(scan_).first(windows)),
        rng, &seg_stats);
  }
  st_.rx += seg_stats;
  ++st_.segments;
  obs_.segments.inc();
  obs_.segment_samples.observe(static_cast<double>(cut));
  for (sim::DecodedPacket& pkt : decoded) {
    pkt.start_sample += static_cast<double>(base_);
    ++st_.packets_emitted;
    obs_.packets_emitted.inc();
    if (on_packet_) on_packet_(pkt);
    if (sopt_.keep_packets) packets_.push_back(std::move(pkt));
  }

  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(cut));
  scan_.erase(scan_.begin(),
              scan_.begin() + static_cast<std::ptrdiff_t>(windows));
  base_ += cut;
  st_.samples_retired += cut;
  obs_.samples_retired.inc(cut);
  obs_.window_samples.set(static_cast<std::int64_t>(buf_.size()));

  // Retire live packets that were decoded (or gave up) inside the segment;
  // after a forced cut, also drop remnants whose preamble is gone.
  const double b = static_cast<double>(base_);
  std::erase_if(live_, [b](const LivePacket& lp) {
    return lp.span_end <= b || lp.t0 < b;
  });
  st_.live_packets = live_.size();
  obs_.live_packets.set(static_cast<std::int64_t>(live_.size()));
}

std::size_t pump(ChunkSource& src, IqRing& ring, std::size_t chunk_samples,
                 bool backpressure,
                 const std::function<void(std::span<const cfloat>)>& consume,
                 const std::function<void(std::size_t)>& on_chunk) {
  std::exception_ptr produce_error;
  std::thread producer([&] {
    try {
      IqBuffer chunk;
      while (!ring.closed() && src.next(chunk, chunk_samples) > 0) {
        if (backpressure) {
          ring.push(chunk);
        } else {
          ring.try_push(chunk);
        }
      }
    } catch (...) {
      produce_error = std::current_exception();
    }
    ring.close();
  });
  std::exception_ptr consume_error;
  std::size_t total = 0;
  try {
    IqBuffer chunk;
    while (ring.pop(chunk, chunk_samples) > 0) {
      consume(chunk);
      total += chunk.size();
      if (on_chunk) on_chunk(total);
    }
  } catch (...) {
    consume_error = std::current_exception();
    ring.close();
  }
  producer.join();
  if (consume_error) std::rethrow_exception(consume_error);
  if (produce_error) std::rethrow_exception(produce_error);
  return total;
}

std::size_t run_pipeline(
    ChunkSource& src, IqRing& ring, StreamingReceiver& rx,
    std::size_t chunk_samples, bool backpressure,
    const std::function<void(std::size_t samples_consumed)>& on_chunk) {
  const std::size_t total = pump(
      src, ring, chunk_samples, backpressure,
      [&rx](std::span<const cfloat> chunk) { rx.push_chunk(chunk); },
      on_chunk);
  rx.finish();
  return total;
}

}  // namespace tnb::stream
