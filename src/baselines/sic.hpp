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

#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"

namespace tnb::base {

class SicDecoder {
 public:
  /// `implicit` and `coding` set the frame format, as for make_receiver:
  /// each round's receiver decodes it and cancellation re-encodes with it.
  explicit SicDecoder(lora::Params p,
                      std::optional<rx::ImplicitHeader> implicit = {},
                      lora::Coding coding = lora::Coding::kPaper);

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
  rx::ReceiverOptions vanilla_;  ///< each round's receiver
};

}  // namespace tnb::base
