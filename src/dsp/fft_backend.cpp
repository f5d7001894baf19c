#include "dsp/fft_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/cpu.hpp"
#include "dsp/fft.hpp"

// Factories of the SIMD TUs compiled in by CMake (dsp/CMakeLists.txt).
// Each returns a process-lifetime singleton; whether it is *registered*
// is decided here at runtime by the CPU predicates, so a binary built
// with every backend still runs correctly on a machine without them.
#if defined(TNB_SIMD_X86)
namespace tnb::dsp {
const FftBackend* tnb_fft_backend_avx2();
const FftBackend* tnb_fft_backend_avx512();
}  // namespace tnb::dsp
#endif

namespace tnb::dsp {
namespace {

// ---- Four-lane arithmetic of the scalar backend ----------------------------
//
// The scalar backend runs four elements at a time on GCC/Clang generic
// vectors, which lower to SSE2 on x86-64 and NEON on AArch64 from this one
// source. Lane-wise +, - and * are the IEEE single-precision operations
// the one-element expressions perform, so a lane computes bit for bit what
// the element's scalar expression computes, in the same order. This file
// is compiled with -ffp-contract=off (dsp/CMakeLists.txt): contraction
// into fused multiply-adds would change the rounding once a build targets
// an ISA with FMA.
typedef float v4f __attribute__((vector_size(16)));
typedef float v2f __attribute__((vector_size(8)));

/// Complex values with re and im in separate registers: T = v4f holds four
/// elements, T = float one (the tails of the elementwise kernels).
template <class T>
struct Cx {
  T re, im;
};

/// (ac - bd, ad + bc): the expression, and operation order, of every
/// complex product in the kernels below.
template <class T>
inline Cx<T> operator*(Cx<T> a, Cx<T> b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

template <class T>
inline Cx<T> operator+(Cx<T> a, Cx<T> b) {
  return {a.re + b.re, a.im + b.im};
}

template <class T>
inline Cx<T> operator-(Cx<T> a, Cx<T> b) {
  return {a.re - b.re, a.im - b.im};
}

/// |z|^2 as re*re + im*im.
template <class T>
inline T norm(Cx<T> z) {
  return z.re * z.re + z.im * z.im;
}

template <class T>
inline T splat(float x) {
  if constexpr (std::is_same_v<T, float>) {
    return x;
  } else {
    return T{x, x, x, x};
  }
}

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

/// Element i (T = float) or elements [i, i + 4) (T = v4f) of an
/// interleaved complex buffer, split into re and im.
template <class T>
inline Cx<T> load_cx(const cfloat* p, std::size_t i) {
  const float* f = reinterpret_cast<const float*>(p + i);
  if constexpr (std::is_same_v<T, float>) {
    return {f[0], f[1]};
  } else {
    const v4f lo = load4(f), hi = load4(f + 4);
    return {__builtin_shufflevector(lo, hi, 0, 2, 4, 6),
            __builtin_shufflevector(lo, hi, 1, 3, 5, 7)};
  }
}

template <class T>
inline void store_cx(cfloat* p, std::size_t i, Cx<T> z) {
  float* f = reinterpret_cast<float*>(p + i);
  if constexpr (std::is_same_v<T, float>) {
    f[0] = z.re;
    f[1] = z.im;
  } else {
    store4(f, __builtin_shufflevector(z.re, z.im, 0, 4, 1, 5));
    store4(f + 4, __builtin_shufflevector(z.re, z.im, 2, 6, 3, 7));
  }
}

template <class T>
inline void store_real(float* p, std::size_t i, T x) {
  if constexpr (std::is_same_v<T, float>) {
    p[i] = x;
  } else {
    store4(p + i, x);
  }
}

/// Runs f.template operator()<T>(i) over [0, m): four elements at a time
/// (T = v4f), then the remainder one at a time (T = float). Element i sees
/// the same operations either way.
template <class F>
inline void for_each_lane(std::size_t m, F&& f) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) f.template operator()<v4f>(i);
  for (; i < m; ++i) f.template operator()<float>(i);
}

}  // namespace

void FftBackend::bit_reverse(const FftPlan& plan, cfloat* a) {
  for (const FftPlan::Swap& s : plan.bitrev_swaps()) std::swap(a[s.i], a[s.j]);
}

void FftBackend::scale_inverse(std::size_t n, cfloat* a) {
  const float scale = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) a[i] *= scale;
}

void FftBackend::transform_batch(const FftPlan& plan, cfloat* data,
                                 std::size_t count, bool inverse) const {
  // One backend invocation for the whole batch: the plan's tables (and
  // this backend's dispatch decision) are resolved once, and successive
  // rows of the same size keep the twiddles hot in cache. Per-row
  // arithmetic is exactly transform(), so batch == N x single for every
  // backend, bit-identically.
  const std::size_t n = plan.size();
  for (std::size_t b = 0; b < count; ++b) {
    transform(plan, data + b * n, inverse);
  }
}

void FftBackend::dechirp_rotate(const cfloat* w, std::size_t m, const cfloat* c,
                                const cfloat* r, cfloat* out) const {
  for_each_lane(m, [&]<class T>(std::size_t i) {
    store_cx(out, i, (load_cx<T>(w, i) * load_cx<T>(c, i)) * load_cx<T>(r, i));
  });
}

void FftBackend::mag_fold(const cfloat* s, std::size_t n, std::size_t image,
                          float* out) const {
  if (image == 0) {
    for_each_lane(n, [&]<class T>(std::size_t k) {
      store_real(out, k, norm(load_cx<T>(s, k)));
    });
    return;
  }
  for_each_lane(n, [&]<class T>(std::size_t k) {
    store_real(out, k, norm(load_cx<T>(s, k)) + norm(load_cx<T>(s + image, k)));
  });
}

void FftBackend::rotate_accumulate(const cfloat* s, std::size_t n, cfloat rot,
                                   cfloat* sum) const {
  for_each_lane(n, [&]<class T>(std::size_t i) {
    const Cx<T> r{splat<T>(rot.real()), splat<T>(rot.imag())};
    store_cx(sum, i, load_cx<T>(sum, i) + load_cx<T>(s, i) * r);
  });
}

namespace {

// ---- The scalar transform ---------------------------------------------------
//
// The radix-2 decimation-in-time transform: bit-reverse permutation, then
// stages of half-width h = 1, 2, 4, ..., n/2, each pairing positions
// (p, p + h) of every 2h-block as v = x[p + h] * w_h[k], (x[p] + v,
// x[p] - v) with k = p mod 2h. Every output element goes through exactly
// those butterflies with exactly those twiddles; only the schedule is
// four-lane:
//  - the permutation gathers into split re/im scratch and runs the h = 1
//    and h = 2 stages on the way (permute_first_stages);
//  - the stages with h >= 4 run two per pass over the scratch, as the
//    radix-2^2 grouping of the same butterflies (radix22_stages), with a
//    single stage first when their count is odd;
//  - the result is interleaved back into the caller's buffer.

/// One thread's split scratch: re and im arrays of max(n, 16) floats,
/// grown to the largest plan size seen and reused afterwards, so a warm
/// thread transforms without allocating.
struct SplitScratch {
  std::vector<v4f> re, im;
};

SplitScratch& split_scratch(std::size_t n) {
  thread_local SplitScratch s;
  const std::size_t vecs = std::max<std::size_t>(n, 16) / 4;
  if (s.re.size() < vecs) {
    s.re.resize(vecs);
    s.im.resize(vecs);
  }
  return s;
}

/// FftPlan::stage_twiddles_re/_im: stage h owns entries [h, 2h).
struct Twiddles {
  const float* re;
  const float* im;

  /// Entry i in every lane.
  Cx<v4f> splat_at(std::size_t i) const {
    return {splat<v4f>(re[i]), splat<v4f>(im[i])};
  }
  /// Entries [i, i + 4).
  Cx<v4f> at(std::size_t i) const { return {load4(re + i), load4(im + i)}; }
};

/// The butterfly of the loop this transform replaced: v = b * w, then
/// (a + v, a - v).
inline void butterfly(Cx<v4f>& a, Cx<v4f>& b, Cx<v4f> w) {
  const Cx<v4f> v = b * w;
  const Cx<v4f> u = a;
  a = u + v;
  b = u - v;
}

/// The complex values at p0..p3 in lanes 0..3.
inline Cx<v4f> gather4(const cfloat* p0, const cfloat* p1, const cfloat* p2,
                       const cfloat* p3) {
  v2f c0, c1, c2, c3;
  std::memcpy(&c0, p0, sizeof c0);
  std::memcpy(&c1, p1, sizeof c1);
  std::memcpy(&c2, p2, sizeof c2);
  std::memcpy(&c3, p3, sizeof c3);
  const v4f lo = __builtin_shufflevector(c0, c1, 0, 1, 2, 3);
  const v4f hi = __builtin_shufflevector(c2, c3, 0, 1, 2, 3);
  return {__builtin_shufflevector(lo, hi, 0, 2, 4, 6),
          __builtin_shufflevector(lo, hi, 1, 3, 5, 7)};
}

/// 4x4 transpose: lane j of x_i trades places with lane i of x_j.
inline void transpose4(v4f& x0, v4f& x1, v4f& x2, v4f& x3) {
  const v4f t0 = __builtin_shufflevector(x0, x1, 0, 4, 1, 5);
  const v4f t1 = __builtin_shufflevector(x2, x3, 0, 4, 1, 5);
  const v4f t2 = __builtin_shufflevector(x0, x1, 2, 6, 3, 7);
  const v4f t3 = __builtin_shufflevector(x2, x3, 2, 6, 3, 7);
  x0 = __builtin_shufflevector(t0, t1, 0, 1, 4, 5);
  x1 = __builtin_shufflevector(t0, t1, 2, 3, 6, 7);
  x2 = __builtin_shufflevector(t2, t3, 0, 1, 4, 5);
  x3 = __builtin_shufflevector(t2, t3, 2, 3, 6, 7);
}

/// Writes positions [0, count) of the permuted input — position p is
/// src[rev[p]] — to split scratch, after the first `stages` (0..2) of the
/// h = 1 and h = 2 stages. `count` is a multiple of 16. Per 16 positions,
/// lane b of column j holds position 4b + j, so the butterflies, which
/// pair positions within a 4-block, are lane-parallel between columns; a
/// transpose turns columns back into rows.
void permute_first_stages(const cfloat* src, const std::uint32_t* rev,
                          std::size_t count, unsigned stages,
                          const Twiddles& tw, v4f* __restrict re,
                          v4f* __restrict im) {
  const Cx<v4f> w1 = stages >= 1 ? tw.splat_at(1) : Cx<v4f>{};
  const Cx<v4f> w20 = stages >= 2 ? tw.splat_at(2) : Cx<v4f>{};
  const Cx<v4f> w21 = stages >= 2 ? tw.splat_at(3) : Cx<v4f>{};
  for (std::size_t base = 0; base < count; base += 16) {
    const std::uint32_t* r = rev + base;
    Cx<v4f> col[4];
    for (std::size_t j = 0; j < 4; ++j) {
      col[j] = gather4(src + r[j], src + r[4 + j], src + r[8 + j],
                       src + r[12 + j]);
    }
    if (stages >= 1) {
      butterfly(col[0], col[1], w1);
      butterfly(col[2], col[3], w1);
    }
    if (stages >= 2) {
      butterfly(col[0], col[2], w20);
      butterfly(col[1], col[3], w21);
    }
    transpose4(col[0].re, col[1].re, col[2].re, col[3].re);
    transpose4(col[0].im, col[1].im, col[2].im, col[3].im);
    for (std::size_t j = 0; j < 4; ++j) {
      re[base / 4 + j] = col[j].re;
      im[base / 4 + j] = col[j].im;
    }
  }
}

/// The stage of half-width h >= 4 over n split elements.
void radix2_stage(v4f* __restrict re, v4f* __restrict im, std::size_t n,
                  std::size_t h, const Twiddles& tw) {
  const std::size_t h4 = h / 4;
  for (std::size_t block = 0; block < n / 4; block += 2 * h4) {
    for (std::size_t k = 0; k < h4; ++k) {
      const std::size_t i0 = block + k, i1 = i0 + h4;
      Cx<v4f> x0{re[i0], im[i0]}, x1{re[i1], im[i1]};
      butterfly(x0, x1, tw.at(h + 4 * k));
      re[i0] = x0.re, im[i0] = x0.im;
      re[i1] = x1.re, im[i1] = x1.im;
    }
  }
}

/// The stages of half-width h >= 4 and 2h in one pass. Within a 4h-block
/// the four quarters x0..x3 at offset k take stage h as (x0, x1) and
/// (x2, x3) with w_h[k], then stage 2h as (x0, x2) with w_2h[k] and
/// (x1, x3) with w_2h[h + k]: the same butterflies as two separate passes.
void radix22_stages(v4f* __restrict re, v4f* __restrict im, std::size_t n,
                    std::size_t h, const Twiddles& tw) {
  const std::size_t h4 = h / 4;
  for (std::size_t block = 0; block < n / 4; block += 4 * h4) {
    for (std::size_t k = 0; k < h4; ++k) {
      const std::size_t i0 = block + k, i1 = i0 + h4, i2 = i1 + h4,
                        i3 = i2 + h4;
      Cx<v4f> x0{re[i0], im[i0]}, x1{re[i1], im[i1]};
      Cx<v4f> x2{re[i2], im[i2]}, x3{re[i3], im[i3]};
      const Cx<v4f> w = tw.at(h + 4 * k);
      butterfly(x0, x1, w);
      butterfly(x2, x3, w);
      butterfly(x0, x2, tw.at(2 * h + 4 * k));
      butterfly(x1, x3, tw.at(3 * h + 4 * k));
      re[i0] = x0.re, im[i0] = x0.im;
      re[i1] = x1.re, im[i1] = x1.im;
      re[i2] = x2.re, im[i2] = x2.im;
      re[i3] = x3.re, im[i3] = x3.im;
    }
  }
}

constexpr std::uint32_t kIdentity16[16] = {0, 1, 2,  3,  4,  5,  6,  7,
                                           8, 9, 10, 11, 12, 13, 14, 15};

class ScalarBackend final : public FftBackend {
 public:
  const char* name() const override { return "scalar"; }

  void transform(const FftPlan& plan, cfloat* a, bool inverse) const override {
    const std::size_t n = plan.size();
    const Twiddles tw{plan.stage_twiddles_re().data(),
                      plan.stage_twiddles_im(inverse).data()};
    SplitScratch& scratch = split_scratch(n);
    v4f* re = scratch.re.data();
    v4f* im = scratch.im.data();

    if (n >= 16) {
      permute_first_stages(a, plan.bitrev().data(), n, 2, tw, re, im);
    } else {
      // The channelizer's n <= 8 DFTs: the same lanes over a zero-padded
      // copy of the permuted input. Padding sits at positions >= n, which
      // no butterfly pairs with a position < n.
      cfloat padded[16] = {};
      const std::span<const std::uint32_t> rev = plan.bitrev();
      for (std::size_t p = 0; p < n; ++p) padded[p] = a[rev[p]];
      permute_first_stages(padded, kIdentity16, 16, n >= 4 ? 2 : n / 2, tw,
                           re, im);
    }

    std::size_t h = 4;
    if (plan.log2n() > 2 && (plan.log2n() - 2) % 2 == 1) {
      radix2_stage(re, im, n, h, tw);
      h *= 2;
    }
    for (; h < n; h *= 4) radix22_stages(re, im, n, h, tw);

    if (n >= 4) {
      for (std::size_t i = 0; i < n / 4; ++i) {
        store_cx(a, 4 * i, Cx<v4f>{re[i], im[i]});
      }
    } else {
      for (std::size_t p = 0; p < n; ++p) a[p] = {re[0][p], im[0][p]};
    }
    if (inverse) scale_inverse(n, a);
  }
};

/// Available backends in ascending preference order, scalar first.
/// Built once; the list is immutable afterwards so lock-free readers are
/// safe for the life of the process.
const std::vector<const FftBackend*>& registry() {
  static const std::vector<const FftBackend*> backends = [] {
    std::vector<const FftBackend*> v;
    v.push_back(&fft_backend_scalar());
#if defined(TNB_SIMD_X86)
    if (common::cpu_has_avx2()) v.push_back(tnb_fft_backend_avx2());
    if (common::cpu_has_avx512()) v.push_back(tnb_fft_backend_avx512());
#endif
    return v;
  }();
  return backends;
}

std::atomic<const FftBackend*> g_active{nullptr};
std::once_flag g_env_once;

/// Selects a backend without touching the env once-flag (shared by the
/// public setter and the env application below).
bool select_backend(std::string_view name) {
  const FftBackend* b = nullptr;
  if (name == "auto") {
    b = registry().back();  // ascending preference; scalar-only => scalar
  } else {
    b = find_fft_backend(name);
    if (b == nullptr) return false;
  }
  g_active.store(b, std::memory_order_release);
  return true;
}

/// Applies TNB_FFT_BACKEND exactly once, before the first dispatch.
/// Unset keeps the scalar default; a bad value warns and keeps scalar
/// (decoding with the wrong backend silently would be worse than slow).
void apply_env() {
  const char* env = std::getenv("TNB_FFT_BACKEND");
  if (env == nullptr || *env == '\0') return;
  if (!select_backend(env)) {
    std::fprintf(stderr,
                 "tnb: TNB_FFT_BACKEND='%s' is not available (have: %s); "
                 "using scalar\n",
                 env, fft_backend_names().c_str());
  }
}

}  // namespace

const FftBackend& fft_backend_scalar() {
  static const ScalarBackend scalar;
  return scalar;
}

std::span<const FftBackend* const> fft_backends() { return registry(); }

const FftBackend* find_fft_backend(std::string_view name) {
  for (const FftBackend* b : registry()) {
    if (name == b->name()) return b;
  }
  return nullptr;
}

const FftBackend& active_fft_backend() {
  std::call_once(g_env_once, apply_env);
  const FftBackend* b = g_active.load(std::memory_order_acquire);
  return b != nullptr ? *b : fft_backend_scalar();
}

bool set_fft_backend(std::string_view name) {
  // Consume the env once-flag first so an explicit selection (CLI flag,
  // test) is never overwritten by a later lazy TNB_FFT_BACKEND read:
  // flag > env > scalar default.
  std::call_once(g_env_once, [] {});
  return select_backend(name);
}

std::string fft_backend_names() {
  std::string s = "auto";
  for (const FftBackend* b : registry()) {
    s += ' ';
    s += b->name();
  }
  return s;
}

}  // namespace tnb::dsp
