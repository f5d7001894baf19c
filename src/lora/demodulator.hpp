// Symbol demodulation: dechirp + FFT + oversampling fold.
//
// The signal vector of a symbol window is Y = |FFT(window .* C')|^2 with the
// two spectral images of each tone (an artifact of oversampling by OSF)
// folded together, yielding a 2^SF-long power vector with a peak at the
// transmitted cyclic shift (paper Section 3, Fig. 1).
//
// The kernels are zero-allocation (DESIGN.md "Hot-path kernels"): they
// write into caller-owned buffers and draw all scratch (FFT buffer,
// per-CFO phasor tables) from a caller-owned `Workspace`, so the
// steady-state decode loop performs no heap allocations per symbol.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "lora/params.hpp"

namespace tnb::lora {

/// Caller-owned scratch for the demodulation kernels.
///
/// Holds the FFT buffer and a small cache of precomputed CFO phasor
/// tables keyed by (cfo, sps) — the per-sample rotation sequence is
/// identical for every window demodulated at the same CFO, so the
/// sequential phasor recurrence runs once per distinct CFO instead of
/// once per symbol. All storage is 64-byte aligned (common/aligned.hpp).
///
/// A workspace is NOT thread-safe: use one per thread (the receiver
/// pipeline threads one through Detector, FracSync, SigCalc and
/// StreamingReceiver). Buffers grow on demand and are retained, so a warm
/// workspace allocates nothing.
class Workspace {
 public:
  Workspace() = default;
  explicit Workspace(const Params& p) { reserve(p); }

  /// Pre-sizes the kernel scratch for `p` (no-op when already sized).
  /// Kernels call this implicitly; calling it up front moves the one-time
  /// allocations out of the hot path.
  void reserve(const Params& p);

  /// Samples per symbol the kernel scratch is currently sized for.
  std::size_t sps() const { return sps_; }

  /// General-purpose caller scratch, never touched by the kernels:
  /// components (FracSync, Detector, SigCalc) keep their window and
  /// accumulator buffers here so one workspace serves a whole pipeline.
  /// Contents persist between kernel calls; sizing is the caller's job.
  static constexpr std::size_t kIqSlots = 6;
  static constexpr std::size_t kSvSlots = 2;
  common::aligned_vector<cfloat>& iq_scratch(std::size_t slot) {
    return iq_slots_[slot];
  }
  SignalVector& sv_scratch(std::size_t slot) { return sv_slots_[slot]; }

 private:
  friend class Demodulator;

  /// One cached phasor table: rot_i = e^{-j 2 pi cfo i / sps} built with
  /// the exact incremental recurrence (including the periodic
  /// renormalization) of the scalar loop it replaces, so applying the
  /// table is bit-identical to rotating incrementally.
  struct Phasor {
    double cfo = 0.0;
    std::uint64_t stamp = 0;  ///< LRU clock; 0 = slot unused
    common::aligned_vector<cfloat> table;
  };

  /// Phasor table for `cfo_cycles`, building and caching it on a miss.
  /// The returned pointer stays valid until 8 other CFOs displace it.
  const cfloat* phasor(double cfo_cycles, std::size_t sps);

  std::size_t sps_ = 0;
  common::aligned_vector<cfloat> spectrum_;  ///< kernel FFT scratch
  SignalVector sv_;                          ///< demod_value scratch
  std::array<Phasor, 8> phasors_;
  std::uint64_t stamp_ = 0;
  std::array<common::aligned_vector<cfloat>, kIqSlots> iq_slots_;
  std::array<SignalVector, kSvSlots> sv_slots_;
};

class Demodulator {
 public:
  explicit Demodulator(Params p);

  const Params& params() const { return p_; }

  /// Complex spectrum of one symbol window after dechirping and CFO
  /// correction, written to `out` (which must be sps long): dechirps
  /// `window` into `out`, zero-pads, and transforms in place. `up` selects
  /// the dechirping reference: true multiplies by the downchirp
  /// (demodulates upchirp symbols), false by the upchirp (demodulates the
  /// preamble downchirps). Windows shorter than sps are zero-padded
  /// (partial symbols at trace edges); longer ones throw
  /// std::invalid_argument. `ws` supplies the cached phasor table; `out`
  /// may be any writable storage (including a `ws.iq_scratch` slot).
  void dechirp_fft_into(std::span<const cfloat> window, double cfo_cycles,
                        bool up, Workspace& ws, std::span<cfloat> out) const;

  /// Batched `dechirp_fft_into` over `count` full sps-long windows packed
  /// contiguously in `windows` (size count * sps, as is `out`; in-place
  /// with windows == out is fine). All windows share one CFO and chirp
  /// direction — the common case in Detector's scan, FracSync's preamble
  /// evaluation, and SigCalc's height sweep — so the phasor table is
  /// resolved once and the FFTs run as one `forward_batch` invocation.
  /// Bit-identical to `count` dechirp_fft_into calls on the same backend.
  void dechirp_fft_batch_into(std::span<const cfloat> windows,
                              std::size_t count, double cfo_cycles, bool up,
                              Workspace& ws, std::span<cfloat> out) const;

  /// Folded power signal vector of one symbol window: computes the
  /// spectrum (as dechirp_fft_into) into the workspace FFT buffer and folds
  /// it into `out` (resized to 2^SF only when its length differs).
  void signal_vector_into(std::span<const cfloat> window, double cfo_cycles,
                          bool up, Workspace& ws, SignalVector& out) const;

  /// Folds an sps-long complex spectrum into the 2^SF-long power vector:
  /// out[k] = |X[k]|^2 + |X[k + N*(OSF-1)]|^2.
  void fold(std::span<const cfloat> spectrum, SignalVector& out) const;

  /// Folded power at a single bin of a complex spectrum (for Q()).
  double folded_power_at(std::span<const cfloat> spectrum, std::size_t bin) const;

  /// Index of the highest element of a signal vector.
  static std::size_t argmax(std::span<const float> sv);

  /// Demodulated paper-format symbol value of the argmax bin
  /// (lora::value_for_bin).
  std::uint32_t demod_value(std::span<const cfloat> window,
                            double cfo_cycles, Workspace& ws) const;

  /// Raw peak bin (argmax, no Gray mapping) — what rx::FrameCodec consumes.
  std::uint32_t demod_bin(std::span<const cfloat> window, double cfo_cycles,
                          Workspace& ws) const;

 private:
  Params p_;
  std::vector<cfloat> downchirp_;  // conj(C), oversampled
  std::vector<cfloat> upchirp_;    // C, oversampled
};

}  // namespace tnb::lora
