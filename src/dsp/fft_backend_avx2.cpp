// AVX2+FMA FftBackend. This TU is the only one compiled with
// -mavx2 -mfma (dsp/CMakeLists.txt); it is registered at runtime only
// when common::cpu_has_avx2() holds, so the rest of the library keeps
// the baseline ISA and a fat binary still runs on older machines.
//
// Complex multiplies use the fmaddsub idiom (one fused rounding instead
// of mul+add), so outputs differ from the scalar backend by a few ULP —
// the tolerance-equivalence contract of DESIGN.md "SIMD demod backends".
// Within this backend everything is deterministic, and batching never
// changes per-transform arithmetic.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>

#include "dsp/fft.hpp"
#include "dsp/fft_backend.hpp"

namespace tnb::dsp {
namespace {

/// Element-wise complex product of 4 interleaved complex floats:
/// even lane a.re*b.re - a.im*b.im, odd lane a.re*b.im + a.im*b.re.
inline __m256 cmul(__m256 a, __m256 b) {
  const __m256 ar = _mm256_moveldup_ps(a);
  const __m256 ai = _mm256_movehdup_ps(a);
  const __m256 bs = _mm256_permute_ps(b, 0xB1);  // swap re/im per complex
  return _mm256_fmaddsub_ps(ar, b, _mm256_mul_ps(ai, bs));
}

/// Stage len == 2 (twiddle 1): out pairs (a+b, a-b), 2 butterflies per
/// 256-bit vector. Requires n % 4 == 0.
void stage_len2(float* af, std::size_t n) {
  for (std::size_t i = 0; i < 2 * n; i += 8) {
    const __m256 v = _mm256_loadu_ps(af + i);
    const __m256 s = _mm256_permute_ps(v, _MM_SHUFFLE(1, 0, 3, 2));
    const __m256 add = _mm256_add_ps(v, s);   // lo slots: a+b
    const __m256 sub = _mm256_sub_ps(s, v);   // hi slots: a-b
    _mm256_storeu_ps(af + i, _mm256_blend_ps(add, sub, 0xCC));
  }
}

/// Stage len == 4 (twiddles {1, -j} forward / {1, +j} inverse): one
/// 4-complex block per 256-bit vector. Requires n % 4 == 0.
void stage_len4(float* af, std::size_t n, bool inverse) {
  // z = [c2r, c2i, c3i, -c3r] (forward: c3 * -j) in the low lane and its
  // negation in the high lane, built from one permute and one sign flip.
  // Inverse uses c3 * +j = (-c3i, c3r): the sign mask moves one slot.
  const __m256i fwd_mask = _mm256_set_epi32(
      0, static_cast<int>(0x80000000), static_cast<int>(0x80000000),
      static_cast<int>(0x80000000), static_cast<int>(0x80000000), 0, 0, 0);
  const __m256i inv_mask = _mm256_set_epi32(
      static_cast<int>(0x80000000), 0, static_cast<int>(0x80000000),
      static_cast<int>(0x80000000), 0, static_cast<int>(0x80000000), 0, 0);
  const __m256 mask =
      _mm256_castsi256_ps(inverse ? inv_mask : fwd_mask);
  for (std::size_t i = 0; i < 2 * n; i += 8) {
    const __m256 v = _mm256_loadu_ps(af + i);
    const __m256 x = _mm256_permute2f128_ps(v, v, 0x11);  // [c2 c3 | c2 c3]
    const __m256 y = _mm256_permute_ps(x, _MM_SHUFFLE(2, 3, 1, 0));
    const __m256 lo = _mm256_permute2f128_ps(v, v, 0x00);  // [c0 c1 | c0 c1]
    _mm256_storeu_ps(af + i, _mm256_add_ps(lo, _mm256_xor_ps(y, mask)));
  }
}

/// Generic stage (len >= 8, half >= 4): packed per-stage twiddles, 4
/// butterflies per iteration.
void stage_generic(float* af, const float* stage_tw, std::size_t n,
                   std::size_t len) {
  const std::size_t half = len >> 1;
  const float* tw = stage_tw + 2 * half;
  for (std::size_t block = 0; block < n; block += len) {
    float* lo = af + 2 * block;
    float* hi = af + 2 * (block + half);
    for (std::size_t k = 0; k < 2 * half; k += 8) {
      const __m256 w = _mm256_loadu_ps(tw + k);
      const __m256 b = _mm256_loadu_ps(hi + k);
      const __m256 v = cmul(b, w);
      const __m256 u = _mm256_loadu_ps(lo + k);
      _mm256_storeu_ps(lo + k, _mm256_add_ps(u, v));
      _mm256_storeu_ps(hi + k, _mm256_sub_ps(u, v));
    }
  }
}

class Avx2Backend final : public FftBackend {
 public:
  const char* name() const override { return "avx2"; }

  void transform(const FftPlan& plan, cfloat* a, bool inverse) const override {
    const std::size_t n = plan.size();
    if (n < 16) {
      // Below 16 points the shuffle set-up dominates: run the scalar
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
    for (std::size_t len = 8; len <= n; len <<= 1) {
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
    for (; i + 8 <= 2 * m; i += 8) {
      const __m256 t = cmul(_mm256_loadu_ps(wf + i), _mm256_loadu_ps(cf + i));
      _mm256_storeu_ps(of + i, cmul(t, _mm256_loadu_ps(rf + i)));
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
    for (; k + 8 <= n; k += 8) {
      __m256 norms = norms8(sf + 2 * k);
      if (image != 0) norms = _mm256_add_ps(norms, norms8(gf + 2 * k));
      _mm256_storeu_ps(out + k, norms);
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
    const __m256 rotv = _mm256_setr_ps(rr, ri, rr, ri, rr, ri, rr, ri);
    const float* sf = reinterpret_cast<const float*>(s);
    float* af = reinterpret_cast<float*>(sum);
    std::size_t i = 0;
    for (; i + 8 <= 2 * n; i += 8) {
      const __m256 v = cmul(_mm256_loadu_ps(sf + i), rotv);
      _mm256_storeu_ps(af + i, _mm256_add_ps(_mm256_loadu_ps(af + i), v));
    }
    for (; i < 2 * n; i += 2) {
      const float sr = sf[i], si = sf[i + 1];
      af[i] += sr * rr - si * ri;
      af[i + 1] += sr * ri + si * rr;
    }
  }

 private:
  /// |.|^2 of 8 consecutive interleaved complex floats, packed in order.
  static inline __m256 norms8(const float* p) {
    const __m256 a = _mm256_loadu_ps(p);
    const __m256 b = _mm256_loadu_ps(p + 8);
    const __m256 h =
        _mm256_hadd_ps(_mm256_mul_ps(a, a), _mm256_mul_ps(b, b));
    // hadd interleaves 128-bit lanes; one 64-bit-granular permute
    // restores bin order.
    return _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(h),
                                                  _MM_SHUFFLE(3, 1, 2, 0)));
  }
};

}  // namespace

const FftBackend* tnb_fft_backend_avx2() {
  static const Avx2Backend be;
  return &be;
}

}  // namespace tnb::dsp

#endif  // x86_64
