// Pluggable SIMD backends for the demodulation hot path (ROADMAP item 2,
// DESIGN.md "SIMD demod backends").
//
// A backend implements the four kernels every TnB receiver spends its
// time in: the radix-2 FFT over a plan's precomputed tables, the fused
// dechirp + CFO rotation, the magnitude-squared fold of a spectrum into a
// signal vector, and FracSync's rotate-accumulate. Backends are selected
// at runtime — by CPU-feature dispatch ("auto"), the TNB_FFT_BACKEND
// environment variable, or the tools' --fft-backend flag — and installed
// process-globally; FftPlan and the lora/core kernels route every call
// through the active backend.
//
// Contract:
//  - "scalar" is always available and is the default. Every output
//    element goes through the same single-precision operations, in the
//    same order, as the one-element loops in testing/reference_fft.hpp;
//    how many elements run at once is free. It is therefore bit-identical
//    to them (tests/test_fft_backend.cpp, the decode-ab-diff CI job).
//  - SIMD backends (avx2 / avx512) legitimately reorder float ops (FMA
//    contraction inside complex multiplies), so their outputs are
//    equivalent only to tolerance; tests/test_fft_backend.cpp pins the
//    per-transform ULP bound and the end-to-end decode agreement.
//  - For any single backend, results are deterministic and
//    `forward_batch` is bit-identical to the same calls made one at a
//    time (batching only amortizes table/twiddle loads, it never changes
//    per-transform arithmetic).
//
// Adding a backend: implement the virtuals in a new TU (compile it with
// the ISA flags it needs, never the whole library), expose a
// `const FftBackend* tnb_fft_backend_<name>()` factory, and register it
// in fft_backend.cpp behind a CPU-feature predicate (common/cpu.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace tnb::dsp {

class FftPlan;

class FftBackend {
 public:
  virtual ~FftBackend() = default;

  /// Stable lower-case identifier ("scalar", "avx2", ...), used by the
  /// --fft-backend flag, TNB_FFT_BACKEND, and the obs info gauge.
  virtual const char* name() const = 0;

  /// Full in-place DFT of one plan-size buffer: bit-reverse permutation,
  /// butterflies, and (for the inverse) 1/N scaling.
  virtual void transform(const FftPlan& plan, cfloat* data,
                         bool inverse) const = 0;

  /// `count` independent in-place transforms over contiguous plan-size
  /// rows of `data`. Bit-identical to `count` transform() calls on the
  /// same backend; the default implementation is exactly that loop.
  virtual void transform_batch(const FftPlan& plan, cfloat* data,
                               std::size_t count, bool inverse) const;

  /// Fused dechirp + CFO rotation: out[i] = (w[i] * c[i]) * r[i] over `m`
  /// complex elements, each product expanded as (ac-bd, ad+bc).
  virtual void dechirp_rotate(const cfloat* w, std::size_t m, const cfloat* c,
                              const cfloat* r, cfloat* out) const;

  /// Magnitude-squared fold: out[k] = |s[k]|^2 for k in [0, n), plus
  /// |s[k + image]|^2 when `image` != 0 (the oversampling image).
  virtual void mag_fold(const cfloat* s, std::size_t n, std::size_t image,
                        float* out) const;

  /// Coherent accumulation: sum[k] += s[k] * rot over n complex elements.
  virtual void rotate_accumulate(const cfloat* s, std::size_t n, cfloat rot,
                                 cfloat* sum) const;

 protected:
  /// Shared scalar pieces for implementations: the bit-reverse
  /// permutation, swapped from the plan's pair list, and the inverse 1/N
  /// scaling (elementwise, so SIMD variants of the scaling stay
  /// bit-identical anyway).
  static void bit_reverse(const FftPlan& plan, cfloat* data);
  static void scale_inverse(std::size_t n, cfloat* data);
};

/// The always-available default backend: the reference loops' operations,
/// four elements at a time on generic vectors (SSE2 / NEON).
const FftBackend& fft_backend_scalar();

/// Backends compiled in AND supported by this CPU, scalar first, in
/// ascending preference order ("auto" picks the last).
std::span<const FftBackend* const> fft_backends();

/// Available backend with `name`, or nullptr if unknown, not compiled
/// in, or unsupported by this CPU.
const FftBackend* find_fft_backend(std::string_view name);

/// The process-global active backend. The first call applies the
/// TNB_FFT_BACKEND environment variable ("auto", "scalar", "avx2", ...);
/// unset or invalid values leave the scalar default (invalid values warn
/// on stderr). Thread-safe; the returned reference is valid forever.
const FftBackend& active_fft_backend();

/// Installs the backend named `name` ("auto" selects the most preferred
/// available backend). Returns false — and changes nothing — when the
/// name is not available. Call before spawning decode threads: the
/// switch is atomic, but mixing backends within one decode would mix
/// rounding behaviors mid-packet.
bool set_fft_backend(std::string_view name);

/// Space-separated names of the available backends plus "auto", for CLI
/// help and error messages.
std::string fft_backend_names();

}  // namespace tnb::dsp
