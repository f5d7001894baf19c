// AVX-512F FftBackend: 512-bit butterflies for stage half-widths >= 8,
// falling back to 256-bit code for the narrow early stages (where a zmm
// would span multiple butterfly blocks) and scalar for tiny transforms.
// Compiled with -mavx512f -mavx512vl (dsp/CMakeLists.txt) and registered
// only when common::cpu_has_avx512() holds.
//
// Same tolerance-equivalence contract as the AVX2 backend: FMA
// contraction inside complex multiplies, deterministic within the
// backend, batch == N x single bit-identically.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>

#include "dsp/fft.hpp"
#include "dsp/fft_backend.hpp"

namespace tnb::dsp {
namespace {

inline __m256 cmul256(__m256 a, __m256 b) {
  const __m256 ar = _mm256_moveldup_ps(a);
  const __m256 ai = _mm256_movehdup_ps(a);
  const __m256 bs = _mm256_permute_ps(b, 0xB1);
  return _mm256_fmaddsub_ps(ar, b, _mm256_mul_ps(ai, bs));
}

/// 8 complex products per vector; same idiom as cmul256 widened.
inline __m512 cmul512(__m512 a, __m512 b) {
  const __m512 ar = _mm512_moveldup_ps(a);
  const __m512 ai = _mm512_movehdup_ps(a);
  const __m512 bs = _mm512_permute_ps(b, 0xB1);
  return _mm512_fmaddsub_ps(ar, b, _mm512_mul_ps(ai, bs));
}

void stage_len2(float* af, std::size_t n) {
  for (std::size_t i = 0; i < 2 * n; i += 8) {
    const __m256 v = _mm256_loadu_ps(af + i);
    const __m256 s = _mm256_permute_ps(v, _MM_SHUFFLE(1, 0, 3, 2));
    const __m256 add = _mm256_add_ps(v, s);
    const __m256 sub = _mm256_sub_ps(s, v);
    _mm256_storeu_ps(af + i, _mm256_blend_ps(add, sub, 0xCC));
  }
}

void stage_len4(float* af, std::size_t n, bool inverse) {
  const __m256i fwd_mask = _mm256_set_epi32(
      0, static_cast<int>(0x80000000), static_cast<int>(0x80000000),
      static_cast<int>(0x80000000), static_cast<int>(0x80000000), 0, 0, 0);
  const __m256i inv_mask = _mm256_set_epi32(
      static_cast<int>(0x80000000), 0, static_cast<int>(0x80000000),
      static_cast<int>(0x80000000), 0, static_cast<int>(0x80000000), 0, 0);
  const __m256 mask = _mm256_castsi256_ps(inverse ? inv_mask : fwd_mask);
  for (std::size_t i = 0; i < 2 * n; i += 8) {
    const __m256 v = _mm256_loadu_ps(af + i);
    const __m256 x = _mm256_permute2f128_ps(v, v, 0x11);
    const __m256 y = _mm256_permute_ps(x, _MM_SHUFFLE(2, 3, 1, 0));
    const __m256 lo = _mm256_permute2f128_ps(v, v, 0x00);
    _mm256_storeu_ps(af + i, _mm256_add_ps(lo, _mm256_xor_ps(y, mask)));
  }
}

/// Stage len == 8 (half == 4): one 256-bit butterfly per block half.
void stage_len8(float* af, const float* stage_tw, std::size_t n) {
  const float* tw = stage_tw + 2 * 4;  // half == 4
  const __m256 w = _mm256_loadu_ps(tw);
  for (std::size_t block = 0; block < n; block += 8) {
    float* lo = af + 2 * block;
    float* hi = lo + 8;
    const __m256 v = cmul256(_mm256_loadu_ps(hi), w);
    const __m256 u = _mm256_loadu_ps(lo);
    _mm256_storeu_ps(lo, _mm256_add_ps(u, v));
    _mm256_storeu_ps(hi, _mm256_sub_ps(u, v));
  }
}

/// Generic stage (len >= 16, half >= 8): packed per-stage twiddles, 8
/// butterflies per 512-bit iteration.
void stage_generic(float* af, const float* stage_tw, std::size_t n,
                   std::size_t len) {
  const std::size_t half = len >> 1;
  const float* tw = stage_tw + 2 * half;
  for (std::size_t block = 0; block < n; block += len) {
    float* lo = af + 2 * block;
    float* hi = af + 2 * (block + half);
    for (std::size_t k = 0; k < 2 * half; k += 16) {
      const __m512 w = _mm512_loadu_ps(tw + k);
      const __m512 b = _mm512_loadu_ps(hi + k);
      const __m512 v = cmul512(b, w);
      const __m512 u = _mm512_loadu_ps(lo + k);
      _mm512_storeu_ps(lo + k, _mm512_add_ps(u, v));
      _mm512_storeu_ps(hi + k, _mm512_sub_ps(u, v));
    }
  }
}

class Avx512Backend final : public FftBackend {
 public:
  const char* name() const override { return "avx512"; }

  void transform(const FftPlan& plan, cfloat* a, bool inverse) const override {
    const std::size_t n = plan.size();
    if (n < 32) {
      // Below 32 points the shuffle set-up dominates: run the scalar
      // backend, which makes tiny sizes bit-identical to it as well.
      fft_backend_scalar().transform(plan, a, inverse);
      return;
    }
    bit_reverse(plan, a);
    float* af = reinterpret_cast<float*>(a);
    const float* stage_tw =
        reinterpret_cast<const float*>(plan.stage_twiddles(inverse).data());
    stage_len2(af, n);
    stage_len4(af, n, inverse);
    stage_len8(af, stage_tw, n);
    for (std::size_t len = 16; len <= n; len <<= 1) {
      stage_generic(af, stage_tw, n, len);
    }
    if (inverse) scale_inverse(n, a);
  }

  void dechirp_rotate(const cfloat* w, std::size_t m, const cfloat* c,
                      const cfloat* r, cfloat* out) const override {
    const float* wf = reinterpret_cast<const float*>(w);
    const float* cf = reinterpret_cast<const float*>(c);
    const float* rf = reinterpret_cast<const float*>(r);
    float* of = reinterpret_cast<float*>(out);
    std::size_t i = 0;
    for (; i + 16 <= 2 * m; i += 16) {
      const __m512 t =
          cmul512(_mm512_loadu_ps(wf + i), _mm512_loadu_ps(cf + i));
      _mm512_storeu_ps(of + i, cmul512(t, _mm512_loadu_ps(rf + i)));
    }
    for (; i < 2 * m; i += 2) {
      const float ar = wf[i], ai = wf[i + 1];
      const float br = cf[i], bi = cf[i + 1];
      const float tr = ar * br - ai * bi;
      const float ti = ar * bi + ai * br;
      const float pr = rf[i], pi = rf[i + 1];
      of[i] = tr * pr - ti * pi;
      of[i + 1] = tr * pi + ti * pr;
    }
  }

  void mag_fold(const cfloat* s, std::size_t n, std::size_t image,
                float* out) const override {
    const float* sf = reinterpret_cast<const float*>(s);
    const float* gf = sf + 2 * image;
    std::size_t k = 0;
    for (; k + 16 <= n; k += 16) {
      __m512 norms = norms16(sf + 2 * k);
      if (image != 0) norms = _mm512_add_ps(norms, norms16(gf + 2 * k));
      _mm512_storeu_ps(out + k, norms);
    }
    for (; k < n; ++k) {
      const float re = sf[2 * k], im = sf[2 * k + 1];
      float v = re * re + im * im;
      if (image != 0) {
        const float re2 = gf[2 * k], im2 = gf[2 * k + 1];
        v += re2 * re2 + im2 * im2;
      }
      out[k] = v;
    }
  }

  void rotate_accumulate(const cfloat* s, std::size_t n, cfloat rot,
                         cfloat* sum) const override {
    const float rr = rot.real(), ri = rot.imag();
    const __m512 rotv = _mm512_setr_ps(rr, ri, rr, ri, rr, ri, rr, ri, rr, ri,
                                       rr, ri, rr, ri, rr, ri);
    const float* sf = reinterpret_cast<const float*>(s);
    float* af = reinterpret_cast<float*>(sum);
    std::size_t i = 0;
    for (; i + 16 <= 2 * n; i += 16) {
      const __m512 v = cmul512(_mm512_loadu_ps(sf + i), rotv);
      _mm512_storeu_ps(af + i, _mm512_add_ps(_mm512_loadu_ps(af + i), v));
    }
    for (; i < 2 * n; i += 2) {
      const float sr = sf[i], si = sf[i + 1];
      af[i] += sr * rr - si * ri;
      af[i + 1] += sr * ri + si * rr;
    }
  }

 private:
  /// |.|^2 of 16 consecutive interleaved complex floats, packed in order:
  /// even/odd-lane compaction across two zmm loads, then one fmadd.
  static inline __m512 norms16(const float* p) {
    const __m512 a = _mm512_loadu_ps(p);
    const __m512 b = _mm512_loadu_ps(p + 16);
    const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                           20, 22, 24, 26, 28, 30);
    const __m512i odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19,
                                          21, 23, 25, 27, 29, 31);
    const __m512 re = _mm512_permutex2var_ps(a, even, b);
    const __m512 im = _mm512_permutex2var_ps(a, odd, b);
    return _mm512_fmadd_ps(re, re, _mm512_mul_ps(im, im));
  }
};

}  // namespace

const FftBackend* tnb_fft_backend_avx512() {
  static const Avx512Backend be;
  return &be;
}

}  // namespace tnb::dsp

#endif  // x86_64
