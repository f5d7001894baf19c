// Critically-sampled block-DFT channelizer — the fleet's wideband front
// end (tnb::fleet, DESIGN.md "Gateway fleet").
//
// A real gateway digitizes one wideband stream covering N adjacent LoRa
// channels at Fs = N x fs (fs = per-channel rate, bandwidth x OSF) and
// splits it into N baseband streams. Channel k is centered at k * fs with
// FFT bin wrapping: indices above N/2 alias to negative frequencies, so
// channel 0 sits at DC and channel N/2 at the band edge. Each block of N
// wideband samples yields exactly one output sample per channel: one
// N-point DFT of the block separates the channels.
//
// The analysis is the exact inverse (to float rounding) of mix_channels'
// block-DFT synthesis — the property the fleet's ground-truth differential
// tests stand on.
//
// A wideband stream rarely ends on a block boundary; the sub-block tail is
// dropped and reported via pending_samples(), mirroring the sticky
// torn-pair semantics of stream::IstreamSource one level up.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace tnb::fleet {

/// Center frequency of channel k relative to the wideband center, in units
/// of the per-channel sample rate fs (k > N/2 wraps negative).
double channel_center_offset(unsigned k, unsigned n_channels);

class Channelizer {
 public:
  /// `n_channels` must be a power of two <= 1024 (the separating DFT runs
  /// on the shared dsp::fft_plan cache).
  explicit Channelizer(unsigned n_channels);

  unsigned n_channels() const { return n_channels_; }

  /// Consumes wideband samples and appends each channel's new baseband
  /// samples to out[k]; out.size() must equal n_channels(). Block assembly
  /// is internal, so the per-channel output is bit-identical for every way
  /// of chunking the same wideband stream.
  void push(std::span<const cfloat> wideband, std::vector<IqBuffer>& out);

  /// Whole blocks processed so far (one output sample per channel each).
  std::size_t blocks() const { return blocks_; }

  /// Wideband samples buffered below one block. Whatever remains at end of
  /// stream is a truncated tail: dropped, never emitted.
  std::size_t pending_samples() const { return pending_.size(); }

 private:
  void process_block(const cfloat* block, std::vector<IqBuffer>& out);

  unsigned n_channels_;
  IqBuffer pending_;  ///< sub-block wideband tail
  IqBuffer work_;     ///< N-point DFT scratch
  std::size_t blocks_ = 0;
};

/// Exact synthesis inverse of the Channelizer analysis: sample m of channel
/// k is held for one wideband block and mixed to center k * fs, i.e.
/// w[m*N + r] = sum_k x_k[m] * e^{+j 2 pi k r / N}. Shorter channels are
/// zero-padded to the longest; channels.size() must not exceed n_channels
/// (missing channels transmit silence).
IqBuffer mix_channels(std::span<const IqBuffer> channels, unsigned n_channels);

}  // namespace tnb::fleet
