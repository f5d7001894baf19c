// Successive interference cancellation, in the style of mLoRa (Wang et
// al., ICNP 2019) — an extension baseline beyond the paper's evaluation
// set (its related work, Section 2).
//
// Rounds: decode the trace with Thrive and the default Hamming decoder
// (no BEC, no second pass), re-encode every newly decoded packet in the
// round receiver's frame format, re-synthesize its waveform, estimate a
// per-symbol complex gain by correlation, subtract, and repeat on the
// residual. Works when packets are separable by power ordering; degrades
// when powers are comparable — the weakness that motivates joint
// approaches like TnB.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"

namespace tnb::base {

struct SicOptions {
  int max_rounds = 6;      ///< cancellation rounds (packets decoded)
  /// Per-round decoder configuration; its coding and implicit header are
  /// also the frame format cancellation re-encodes with.
  rx::ReceiverOptions vanilla;

  SicOptions() {
    vanilla.use_bec = false;
    vanilla.two_pass = false;
  }
};

class SicDecoder {
 public:
  explicit SicDecoder(lora::Params p, SicOptions opt = {});

  /// Decodes by successive cancellation. Each round removes every packet
  /// decoded so far from the residual before re-detecting.
  std::vector<sim::DecodedPacket> decode(std::span<const cfloat> trace,
                                         Rng& rng) const;

 private:
  /// Subtracts the reconstructed waveform of a decoded packet from `work`.
  /// The packet's symbols are re-encoded from its payload by `codec`; the
  /// complex gain is estimated per symbol by correlating `work` against
  /// the unit-amplitude reference.
  void cancel(IqBuffer& work, const sim::DecodedPacket& pkt,
              const rx::FrameCodec& codec) const;

  lora::Params p_;
  SicOptions opt_;
};

}  // namespace tnb::base
