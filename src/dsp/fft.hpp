// Radix-2 complex FFT with a per-size plan cache.
//
// Every transform in TnB has power-of-two length (2^SF, or 2^SF * OSF for
// oversampled symbols, at most 2^12 * 8 = 32768), so an iterative
// Cooley-Tukey radix-2 transform with precomputed twiddles is sufficient and
// keeps the library dependency-free.
//
// A plan owns the size-dependent tables (bit-reverse permutation, also as
// its list of swaps, and the per-stage twiddles, interleaved and split into
// re/im); the arithmetic is executed by the process-global dsp::FftBackend
// (fft_backend.hpp), so one runtime dispatch decision serves the scalar,
// AVX2 and AVX-512 kernels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace tnb::dsp {

/// Precomputed transform of one fixed power-of-two size.
///
/// A plan is immutable after construction and safe to share across threads
/// for concurrent `forward`/`inverse` calls on distinct buffers.
class FftPlan {
 public:
  /// Creates a plan for transforms of length `n`. Throws std::invalid_argument
  /// if `n` is not a power of two.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  unsigned log2n() const { return log2n_; }

  /// In-place forward DFT (engineering sign convention: X[k] = sum x[n] e^{-j2pi nk/N}).
  void forward(std::span<cfloat> data) const;

  /// In-place inverse DFT, normalized by 1/N.
  void inverse(std::span<cfloat> data) const;

  /// Out-of-place forward transform. `out` must have the plan's size;
  /// `in` may be shorter and is zero-padded.
  void forward(std::span<const cfloat> in, std::span<cfloat> out) const;

  /// Batched in-place forward DFT: `count` independent transforms over
  /// contiguous plan-size rows of `data` (data.size() == count * size()),
  /// executed in one backend invocation so the twiddle / bit-reverse
  /// tables are loaded once per batch. Bit-identical to `count`
  /// successive forward() calls on the same backend.
  void forward_batch(std::span<cfloat> data, std::size_t count) const;

  /// Batched in-place inverse DFT (see forward_batch), 1/N-normalized.
  void inverse_batch(std::span<cfloat> data, std::size_t count) const;

  // --- Table access for FftBackend implementations. ---

  /// Bit-reverse permutation, length size().
  std::span<const std::uint32_t> bitrev() const { return bitrev_; }

  /// One transposition of the bit-reverse permutation.
  struct Swap {
    std::uint32_t i;
    std::uint32_t j;
  };
  /// The bit-reverse permutation as its transpositions: every (i, j) with
  /// i < j = bitrev()[i], in increasing i. Swapping each pair in place
  /// permutes a buffer without a branch per index.
  std::span<const Swap> bitrev_swaps() const { return bitrev_swaps_; }

  /// Per-stage packed twiddles, length N: the stage with butterfly
  /// half-width h (h = 1, 2, 4, ..., N/2) owns the h contiguous entries
  /// [h, 2h), entry k being e^{-+j 2 pi k / 2h}; entry 0 is unused. Unit
  /// stride within a stage, so SIMD butterfly loops load them directly.
  std::span<const cfloat> stage_twiddles(bool inverse) const {
    return inverse ? stage_tw_inv_ : stage_tw_fwd_;
  }

  /// The same stage_twiddles() floats split into real and imaginary
  /// arrays (layout only) for kernels that keep re and im in separate
  /// vectors. The inverse twiddles are the conjugates, so both directions
  /// share the real parts.
  std::span<const float> stage_twiddles_re() const { return stage_tw_re_; }
  std::span<const float> stage_twiddles_im(bool inverse) const {
    return inverse ? stage_tw_im_inv_ : stage_tw_im_fwd_;
  }

 private:
  void transform(std::span<cfloat> data, bool inverse) const;

  std::size_t n_;
  unsigned log2n_;
  std::vector<std::uint32_t> bitrev_;
  std::vector<Swap> bitrev_swaps_;
  std::vector<cfloat> stage_tw_fwd_;  // packed per stage, N entries
  std::vector<cfloat> stage_tw_inv_;
  std::vector<float> stage_tw_re_;  // split copies of the above
  std::vector<float> stage_tw_im_fwd_;
  std::vector<float> stage_tw_im_inv_;
};

/// Returns a shared plan for length `n`, creating it on first use.
/// Thread-safe and lock-free: the cache is a fixed array of atomic plan
/// pointers indexed by log2(n), so the steady-state lookup is one acquire
/// load and concurrent callers never contend (DESIGN.md "Hot-path
/// kernels"). Plans live for the lifetime of the process. Throws
/// std::invalid_argument unless `n` is a power of two no larger than 2^24.
const FftPlan& fft_plan(std::size_t n);

/// Convenience wrappers over the plan cache.
void fft_inplace(std::span<cfloat> data);
void ifft_inplace(std::span<cfloat> data);
std::vector<cfloat> fft(std::span<const cfloat> data);
std::vector<cfloat> ifft(std::span<const cfloat> data);

}  // namespace tnb::dsp
