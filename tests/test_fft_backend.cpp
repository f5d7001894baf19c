// FftBackend contracts (DESIGN.md "SIMD demod backends"):
//  - the scalar backend byte-equal to the one-element reference loops
//    (testing/reference_fft.hpp) at every n = 2^0..2^15 on Gaussian,
//    zero-padded, signed-zero, subnormal and inf/NaN inputs, and its
//    elementwise kernels at every length 1..67 on misaligned buffers,
//  - per-size output hashes of the scalar backend, captured before it was
//    vectorized, on integer-derived inputs,
//  - scalar-vs-SIMD per-transform equivalence to a ULP-scaled bound over
//    the full SF 5..12 x OSF {1, 8} size grid,
//  - forward_batch bit-identical to N single transforms on every backend,
//  - same-backend determinism (two runs, memcmp-equal),
//  - elementwise kernel (dechirp/fold/rotate) equivalence,
//  - forward -> inverse round trip per backend,
//  - end-to-end decode agreement between scalar and each SIMD backend.
//
// On machines without AVX2 only the scalar backend registers and the
// cross-backend loops are vacuously empty — the suite still passes, it
// just covers less.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_backend.hpp"
#include "lora/chirp.hpp"
#include "lora/demodulator.hpp"
#include "sim/deployment.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"
#include "testing/reference_fft.hpp"

namespace tnb::dsp {
namespace {

/// Selects a backend for one test and restores the scalar default on
/// exit, so test order can never leak a SIMD selection into suites that
/// assume the bit-identity contract.
class BackendGuard {
 public:
  explicit BackendGuard(const char* name) {
    EXPECT_TRUE(set_fft_backend(name));
  }
  ~BackendGuard() { set_fft_backend("scalar"); }
};

std::vector<const FftBackend*> simd_backends() {
  std::vector<const FftBackend*> v;
  for (const FftBackend* b : fft_backends()) {
    if (std::string_view(b->name()) != "scalar") v.push_back(b);
  }
  return v;
}

std::vector<cfloat> random_buffer(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> buf(n);
  for (auto& v : buf) v = rng.complex_normal();
  return buf;
}

float max_abs(std::span<const cfloat> x) {
  float m = 0.0f;
  for (const cfloat& v : x) {
    m = std::max({m, std::abs(v.real()), std::abs(v.imag())});
  }
  return m;
}

/// Per-element bound for scalar-vs-SIMD transform outputs: a fixed ULP
/// budget per butterfly stage (FMA contraction changes each complex
/// multiply by at most a few ULP, and the error compounds once per
/// stage), scaled by the spectrum's magnitude. Expressed in ULP of
/// max|X| so the bound tracks the data instead of an absolute epsilon.
float transform_tolerance(std::size_t n, float scale) {
  const float log2n = std::log2(static_cast<float>(n));
  const float ulps = 32.0f + 16.0f * log2n;
  return ulps * scale * std::ldexp(1.0f, -23);
}

void expect_close(std::span<const cfloat> a, std::span<const cfloat> b,
                  float tol, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i].real(), b[i].real(), tol) << what << " bin " << i;
    ASSERT_NEAR(a[i].imag(), b[i].imag(), tol) << what << " bin " << i;
  }
}

TEST(FftBackend, RegistryHasScalarFirst) {
  const auto backends = fft_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.front()->name(), "scalar");
  EXPECT_EQ(&fft_backend_scalar(), backends.front());
  EXPECT_NE(fft_backend_names().find("auto"), std::string::npos);
  EXPECT_NE(fft_backend_names().find("scalar"), std::string::npos);
}

TEST(FftBackend, FindAndSetValidateNames) {
  EXPECT_EQ(find_fft_backend("no-such-backend"), nullptr);
  EXPECT_FALSE(set_fft_backend("no-such-backend"));
  EXPECT_STREQ(active_fft_backend().name(), "scalar");  // unchanged
  {
    BackendGuard guard("auto");
    EXPECT_STREQ(active_fft_backend().name(), fft_backends().back()->name());
  }
  EXPECT_STREQ(active_fft_backend().name(), "scalar");
}

// ---- scalar backend == reference loops, byte for byte ---------------------

/// The NaN the FPU produces for inf - inf. NaN inputs use it, so every NaN
/// a transform meets has one bit pattern and the payload cannot depend on
/// which operand of a commutative add or multiply a compiler puts first.
float default_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

enum class InputKind {
  kGaussian,
  kZeroPadded,
  kSignedZeros,
  kSubnormal,
  kInfNan,
};

const char* kind_name(InputKind k) {
  switch (k) {
    case InputKind::kGaussian: return "gaussian";
    case InputKind::kZeroPadded: return "zero-padded";
    case InputKind::kSignedZeros: return "signed-zeros";
    case InputKind::kSubnormal: return "subnormal";
    case InputKind::kInfNan: return "inf-nan";
  }
  return "?";
}

constexpr InputKind kInputKinds[] = {
    InputKind::kGaussian, InputKind::kZeroPadded, InputKind::kSignedZeros,
    InputKind::kSubnormal, InputKind::kInfNan};

std::vector<cfloat> make_input(InputKind kind, std::size_t n,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> buf = random_buffer(n, seed);
  const float nan = default_nan();
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    float re = buf[i].real(), im = buf[i].imag();
    switch (kind) {
      case InputKind::kGaussian:
        break;
      case InputKind::kZeroPadded:  // a window cut short by the trace end
        if (i >= n - n / 3) re = im = 0.0f;
        break;
      case InputKind::kSignedZeros:  // mostly +-0, a few ones
        re = rng.uniform_index(8) == 0 ? 1.0f
                                       : std::copysign(0.0f, re);
        im = std::copysign(0.0f, im);
        break;
      case InputKind::kSubnormal:  // products underflow, sums stay subnormal
        re = std::ldexp(re, -130);
        im = std::ldexp(im, -130);
        break;
      case InputKind::kInfNan:
        switch (rng.uniform_index(16)) {
          case 0: re = inf; break;
          case 1: im = -inf; break;
          case 2: re = nan; break;
          case 3: im = nan; break;
          default: break;
        }
        break;
    }
    buf[i] = {re, im};
  }
  return buf;
}

::testing::AssertionResult same_bytes(const void* a, const void* b,
                                      std::size_t bytes) {
  if (std::memcmp(a, b, bytes) == 0) return ::testing::AssertionSuccess();
  const auto* x = static_cast<const std::uint32_t*>(a);
  const auto* y = static_cast<const std::uint32_t*>(b);
  std::size_t i = 0;
  while (x[i] == y[i]) ++i;
  return ::testing::AssertionFailure()
         << "first differing float " << i << ": 0x" << std::hex << x[i]
         << " vs 0x" << y[i];
}

TEST(FftBackend, ScalarMatchesReferenceLoop) {
  // Every size from 1 (n <= 8 are the channelizer's DFTs) to SF 12 x
  // OSF 8, forward and inverse, single and batched.
  const FftBackend& scalar = fft_backend_scalar();
  for (unsigned log2n = 0; log2n <= 15; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const auto& plan = fft_plan(n);
    std::vector<cfloat> batch_in, batch_ref;
    for (const InputKind kind : kInputKinds) {
      const std::vector<cfloat> input =
          make_input(kind, n, 1000 + 10 * log2n + static_cast<unsigned>(kind));
      for (const bool inverse : {false, true}) {
        std::vector<cfloat> ref = input, out = input;
        testing::reference_transform(plan, ref.data(), inverse);
        scalar.transform(plan, out.data(), inverse);
        EXPECT_TRUE(same_bytes(ref.data(), out.data(), n * sizeof(cfloat)))
            << "n=" << n << " " << kind_name(kind) << " inverse=" << inverse;
      }
      batch_in.insert(batch_in.end(), input.begin(), input.end());
    }
    for (const bool inverse : {false, true}) {
      batch_ref = batch_in;
      for (std::size_t r = 0; r < std::size(kInputKinds); ++r) {
        testing::reference_transform(plan, batch_ref.data() + r * n, inverse);
      }
      std::vector<cfloat> out = batch_in;
      scalar.transform_batch(plan, out.data(), std::size(kInputKinds), inverse);
      EXPECT_TRUE(same_bytes(batch_ref.data(), out.data(),
                             out.size() * sizeof(cfloat)))
          << "batch n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftBackend, ScalarKernelsMatchReferenceLoops) {
  // Every length through several four-lane bodies plus each tail length,
  // on buffers offset by 0..3 complex elements from their allocation, so
  // the four-lane loads and stores meet every 8-byte alignment.
  const FftBackend& scalar = fft_backend_scalar();
  constexpr std::size_t kMaxLen = 67;
  for (const InputKind kind : kInputKinds) {
    const std::vector<cfloat> src =
        make_input(kind, 4 * kMaxLen + 8, 77 + static_cast<unsigned>(kind));
    for (std::size_t m = 1; m <= kMaxLen; ++m) {
      const std::size_t off = m % 4;
      const cfloat* w = src.data() + off;
      const cfloat* c = src.data() + kMaxLen + (off + 1) % 4;
      const cfloat* r = src.data() + 2 * kMaxLen + (off + 2) % 4;
      const std::string what =
          std::string(kind_name(kind)) + " m=" + std::to_string(m);

      std::vector<cfloat> ref(m + 4), out(m + 4);
      testing::reference_dechirp_rotate(w, m, c, r, ref.data() + off);
      scalar.dechirp_rotate(w, m, c, r, out.data() + off);
      EXPECT_TRUE(
          same_bytes(ref.data(), out.data(), ref.size() * sizeof(cfloat)))
          << "dechirp_rotate " << what;

      for (const std::size_t image : {std::size_t{0}, m, 2 * m + 1}) {
        std::vector<float> ref_mag(m + 3), mag(m + 3);
        testing::reference_mag_fold(w, m, image, ref_mag.data() + off % 3);
        scalar.mag_fold(w, m, image, mag.data() + off % 3);
        EXPECT_TRUE(same_bytes(ref_mag.data(), mag.data(),
                               mag.size() * sizeof(float)))
            << "mag_fold image=" << image << " " << what;
      }

      for (const cfloat rot : {cfloat{0.6f, -0.8f}, cfloat{-0.0f, 1.0f}}) {
        std::vector<cfloat> ref_sum(c, c + m + 4), sum(c, c + m + 4);
        testing::reference_rotate_accumulate(w, m, rot, ref_sum.data() + off);
        scalar.rotate_accumulate(w, m, rot, sum.data() + off);
        EXPECT_TRUE(same_bytes(ref_sum.data(), sum.data(),
                               sum.size() * sizeof(cfloat)))
            << "rotate_accumulate " << what;
      }
    }
  }
}

// ---- golden hashes of the scalar backend ------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Values on the int16 grid at scale 1/1024: built from integers only and
/// exact in float, so the inputs cannot depend on compiler flags.
std::vector<cfloat> grid_input(std::size_t n, std::uint64_t seed) {
  std::vector<cfloat> buf(n);
  for (cfloat& v : buf) {
    const auto re = static_cast<std::int16_t>(splitmix64(seed) >> 48);
    const auto im = static_cast<std::int16_t>(splitmix64(seed) >> 48);
    v = {static_cast<float>(re) / 1024.0f, static_cast<float>(im) / 1024.0f};
  }
  return buf;
}

/// FNV-1a over the bytes of `data`.
std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ull;
  }
  return h;
}

TEST(FftBackend, ScalarGoldenHashes) {
  // Output hashes of the scalar backend at every n = 2^0..2^15, captured
  // from the one-element loops before the backend ran four lanes at a
  // time. A build whose compiler contracts a*b+c into FMA, or reorders
  // any float operation, changes them.
  struct Golden {
    std::uint64_t forward, inverse;
  };
  constexpr Golden kTransform[16] = {
      {0xB77761102430EEB1ull, 0xB77761102430EEB1ull},  // n = 1
      {0x7CB9B58B5C5412F1ull, 0x0117D9D0B13B5187ull},  // n = 2
      {0x370F616247C7F903ull, 0x967544BC3FCA999Bull},  // n = 4
      {0x71F0DA7E4CA87C49ull, 0xA3A4E45AAC2BDB4Bull},  // n = 8
      {0x4161F4AA63CCD7CEull, 0x363A89D5F2F834F6ull},  // n = 16
      {0x67E962F92307B2A7ull, 0x01379EBA5429C895ull},  // n = 32
      {0x6ACA21D6F3CF9382ull, 0x007463CFE617EA74ull},  // n = 64
      {0x6256F698B3E7843Aull, 0x163C85193E3CD837ull},  // n = 128
      {0xDC0486AAD4FB5A53ull, 0x46709B8ADFC42523ull},  // n = 256
      {0x59666767B603B9D7ull, 0x3D2B581E2F88EF20ull},  // n = 512
      {0xBA2EF55CE426E91Bull, 0x7A8AFFEE8232C1B7ull},  // n = 1024
      {0x98ADFE5FDA1E4040ull, 0x47855AFB556C2F27ull},  // n = 2048
      {0xE0CE2AF05FAEB1F2ull, 0x256D8F29F0290A1Eull},  // n = 4096
      {0x627AC55F85C2A547ull, 0xCE0C736D765D9E14ull},  // n = 8192
      {0xCF589565D85BA3A2ull, 0x3BF64B1B56A75B58ull},  // n = 16384
      {0x438AB2DF7840FF61ull, 0x930B2DADA1F1BD25ull},  // n = 32768
  };
  const FftBackend& scalar = fft_backend_scalar();
  for (unsigned log2n = 0; log2n <= 15; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const std::vector<cfloat> input = grid_input(n, log2n);
    std::vector<cfloat> fwd = input, inv = input;
    scalar.transform(fft_plan(n), fwd.data(), false);
    scalar.transform(fft_plan(n), inv.data(), true);
    EXPECT_EQ(fnv1a(fwd.data(), n * sizeof(cfloat)), kTransform[log2n].forward)
        << "forward n=" << n;
    EXPECT_EQ(fnv1a(inv.data(), n * sizeof(cfloat)), kTransform[log2n].inverse)
        << "inverse n=" << n;
  }

  // The elementwise kernels on one 1003-element grid input each.
  constexpr std::size_t m = 1003;
  const std::vector<cfloat> w = grid_input(m, 100), c = grid_input(m, 101),
                            r = grid_input(m, 102), rot = grid_input(1, 103);
  std::vector<cfloat> dc(m), acc = c;
  scalar.dechirp_rotate(w.data(), m, c.data(), r.data(), dc.data());
  scalar.rotate_accumulate(w.data(), m, rot[0], acc.data());
  std::vector<float> flat(m), folded(m / 2);
  scalar.mag_fold(w.data(), m, 0, flat.data());
  scalar.mag_fold(w.data(), m / 2, m / 2, folded.data());
  EXPECT_EQ(fnv1a(dc.data(), m * sizeof(cfloat)), 0xB70F4642DCFED905ull);
  EXPECT_EQ(fnv1a(acc.data(), m * sizeof(cfloat)), 0x03048B4F2D41CA83ull);
  EXPECT_EQ(fnv1a(flat.data(), m * sizeof(float)), 0x5D4B8352CF03B5CEull);
  EXPECT_EQ(fnv1a(folded.data(), (m / 2) * sizeof(float)),
            0x1FCD9C1F6471B5DEull);
}

TEST(FftBackend, TransformEquivalenceAcrossSizes) {
  // SF 5..12 x OSF {1, 8}: every transform size the demod hot path uses
  // (32 .. 32768), forward and inverse.
  for (unsigned sf = 5; sf <= 12; ++sf) {
    for (const unsigned osf : {1u, 8u}) {
      const std::size_t n = (std::size_t{1} << sf) * osf;
      const auto& plan = fft_plan(n);
      const std::vector<cfloat> input = random_buffer(n, 100 + sf * 10 + osf);
      for (const bool inverse : {false, true}) {
        std::vector<cfloat> ref = input;
        fft_backend_scalar().transform(plan, ref.data(), inverse);
        const float tol = transform_tolerance(n, std::max(max_abs(ref), 1.0f));
        for (const FftBackend* be : simd_backends()) {
          std::vector<cfloat> out = input;
          be->transform(plan, out.data(), inverse);
          expect_close(ref, out, tol, be->name());
        }
      }
    }
  }
}

TEST(FftBackend, BatchBitIdenticalToSingles) {
  constexpr std::size_t kCount = 5;
  for (const std::size_t n : {32u, 1024u, 8192u}) {
    const auto& plan = fft_plan(n);
    const std::vector<cfloat> input = random_buffer(n * kCount, 7);
    for (const FftBackend* be : fft_backends()) {
      for (const bool inverse : {false, true}) {
        std::vector<cfloat> batched = input;
        be->transform_batch(plan, batched.data(), kCount, inverse);
        std::vector<cfloat> singles = input;
        for (std::size_t b = 0; b < kCount; ++b) {
          be->transform(plan, singles.data() + b * n, inverse);
        }
        EXPECT_EQ(std::memcmp(batched.data(), singles.data(),
                              batched.size() * sizeof(cfloat)),
                  0)
            << be->name() << " n=" << n << " inverse=" << inverse;
      }
    }
  }
}

TEST(FftBackend, SameBackendDeterminism) {
  const std::size_t n = 4096;
  const auto& plan = fft_plan(n);
  const std::vector<cfloat> input = random_buffer(n, 11);
  for (const FftBackend* be : fft_backends()) {
    std::vector<cfloat> a = input, b = input;
    be->transform(plan, a.data(), false);
    be->transform(plan, b.data(), false);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(cfloat)), 0)
        << be->name();
  }
}

TEST(FftBackend, RoundTripRecoversInput) {
  for (const FftBackend* be : fft_backends()) {
    for (const std::size_t n : {64u, 2048u, 32768u}) {
      const auto& plan = fft_plan(n);
      const std::vector<cfloat> input = random_buffer(n, 13);
      std::vector<cfloat> buf = input;
      be->transform(plan, buf.data(), false);
      be->transform(plan, buf.data(), true);
      const float tol =
          2.0f * transform_tolerance(n, std::max(max_abs(input), 1.0f));
      expect_close(input, buf, tol, be->name());
    }
  }
}

TEST(FftBackend, ElementwiseKernelsMatchScalar) {
  // Odd length exercises every backend's scalar tail loop.
  const std::size_t m = 1003;
  const std::vector<cfloat> w = random_buffer(m, 21);
  const std::vector<cfloat> c = random_buffer(m, 22);
  const std::vector<cfloat> r = random_buffer(m, 23);
  const FftBackend& scalar = fft_backend_scalar();

  std::vector<cfloat> ref_dc(m);
  scalar.dechirp_rotate(w.data(), m, c.data(), r.data(), ref_dc.data());
  std::vector<float> ref_mag(m / 2);
  scalar.mag_fold(w.data(), m / 2, m / 2, ref_mag.data());
  std::vector<float> ref_mag_flat(m);
  scalar.mag_fold(w.data(), m, 0, ref_mag_flat.data());
  std::vector<cfloat> ref_acc = c;
  scalar.rotate_accumulate(w.data(), m, cfloat{0.6f, -0.8f}, ref_acc.data());

  // Two chained complex multiplies / a two-term power sum: a few ULP of
  // the element magnitude covers any FMA contraction.
  const float tol = 16.0f * std::ldexp(std::max(max_abs(ref_dc), 4.0f), -23);
  const float mag_peak = *std::max_element(ref_mag_flat.begin(), ref_mag_flat.end());
  const float mag_tol = 16.0f * std::ldexp(std::max(mag_peak, 4.0f), -23);
  for (const FftBackend* be : simd_backends()) {
    std::vector<cfloat> dc(m);
    be->dechirp_rotate(w.data(), m, c.data(), r.data(), dc.data());
    expect_close(ref_dc, dc, tol, be->name());

    std::vector<float> mag(m / 2);
    be->mag_fold(w.data(), m / 2, m / 2, mag.data());
    for (std::size_t k = 0; k < mag.size(); ++k) {
      ASSERT_NEAR(ref_mag[k], mag[k], mag_tol) << be->name() << " fold " << k;
    }
    std::vector<float> mag_flat(m);
    be->mag_fold(w.data(), m, 0, mag_flat.data());
    for (std::size_t k = 0; k < m; ++k) {
      ASSERT_NEAR(ref_mag_flat[k], mag_flat[k], mag_tol)
          << be->name() << " flat " << k;
    }

    std::vector<cfloat> acc = c;
    be->rotate_accumulate(w.data(), m, cfloat{0.6f, -0.8f}, acc.data());
    expect_close(ref_acc, acc, tol, be->name());
  }
}

TEST(FftBackend, DemodBatchMatchesSinglesBitIdentically) {
  // The lora::Demodulator batch entry point: per backend, one
  // dechirp_fft_batch_into call over packed windows must reproduce the
  // per-window dechirp_fft_into results byte for byte.
  const lora::Params p{.sf = 7, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
  const lora::Demodulator demod(p);
  const std::size_t sps = p.sps();
  constexpr std::size_t kCount = 4;
  std::vector<cfloat> windows;
  for (std::size_t i = 0; i < kCount; ++i) {
    const auto sym =
        lora::make_upchirp(p, static_cast<std::uint32_t>(17 * i + 3));
    windows.insert(windows.end(), sym.begin(), sym.end());
  }
  for (const FftBackend* be : fft_backends()) {
    BackendGuard guard(be->name());
    lora::Workspace ws(p);
    std::vector<cfloat> batched(kCount * sps);
    demod.dechirp_fft_batch_into(windows, kCount, 0.37, /*up=*/true, ws,
                                 batched);
    std::vector<cfloat> single(sps);
    for (std::size_t i = 0; i < kCount; ++i) {
      demod.dechirp_fft_into(
          std::span<const cfloat>(windows.data() + i * sps, sps), 0.37,
          /*up=*/true, ws, single);
      EXPECT_EQ(std::memcmp(batched.data() + i * sps, single.data(),
                            sps * sizeof(cfloat)),
                0)
          << be->name() << " window " << i;
    }
  }
}

TEST(FftBackend, EndToEndDecodeAgreement) {
  // Decode one simulated multi-packet trace with the scalar backend and
  // with every SIMD backend. SIMD rounding may legitimately flip a
  // borderline packet, so the gate is >= 99% agreement (with one packet
  // of slack for small samples), not bit-identity.
  sim::TraceOptions opt;
  opt.duration_s = 2.0;
  opt.load_pps = 6.0;
  const lora::Params p{.sf = 7, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
  Rng trace_rng(99);
  opt.nodes = sim::indoor_deployment().draw_nodes(trace_rng);
  opt.nodes.resize(4);
  const sim::Trace trace = sim::build_trace(p, opt, trace_rng);
  const rx::Receiver receiver(p);

  auto decode_count = [&]() {
    Rng rng(5);
    const auto decoded = receiver.decode(trace.iq, rng);
    return sim::evaluate(trace, decoded).decoded_unique;
  };

  std::size_t scalar_count = 0;
  {
    BackendGuard guard("scalar");
    scalar_count = decode_count();
  }
  ASSERT_GT(scalar_count, 0u) << "scenario decodes nothing; test is vacuous";

  for (const FftBackend* be : simd_backends()) {
    BackendGuard guard(be->name());
    const std::size_t count = decode_count();
    const std::size_t slack =
        std::max<std::size_t>(1, scalar_count / 100);  // >= 99% agreement
    EXPECT_GE(count + slack, scalar_count) << be->name();
    EXPECT_LE(count, scalar_count + slack) << be->name();
  }
}

}  // namespace
}  // namespace tnb::dsp
