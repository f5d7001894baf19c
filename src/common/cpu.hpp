// Runtime CPU-feature detection for the SIMD kernel dispatch
// (dsp/fft_backend.hpp). Header-only: each predicate is a cheap wrapper
// over the compiler's CPU model and returns false on every platform other
// than x86-64, so callers never need their own #ifdef ladders.
#pragma once

namespace tnb::common {

/// True when the CPU executes AVX2 + FMA (the avx2 backend's contract).
inline bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// True when the CPU executes AVX-512F (the avx512 backend's contract;
/// the backend only uses foundation ops plus the AVX2 subset).
inline bool cpu_has_avx512() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx512f") && cpu_has_avx2();
#else
  return false;
#endif
}

}  // namespace tnb::common
