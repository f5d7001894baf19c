#include "testing/reference_fft.hpp"

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/math_util.hpp"

namespace tnb::testing {

void reference_transform(const dsp::FftPlan& plan, cfloat* a, bool inverse) {
  const std::size_t n = plan.size();
  const std::span<const std::uint32_t> rev = plan.bitrev();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(a[i], a[j]);
  }

  std::vector<cfloat> tw(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    tw[k] = {static_cast<float>(std::cos(ang)),
             static_cast<float>(std::sin(ang))};
    if (inverse) tw[k] = std::conj(tw[k]);
  }

  const float* twf = reinterpret_cast<const float*>(tw.data());
  float* af = reinterpret_cast<float*>(a);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n / len;  // twiddle stride for this stage
    for (std::size_t block = 0; block < n; block += len) {
      std::size_t tw_idx = 0;
      float* lo = af + 2 * block;
      float* hi = af + 2 * (block + half);
      for (std::size_t k = 0; k < 2 * half; k += 2, tw_idx += 2 * step) {
        const float wr = twf[tw_idx], wi = twf[tw_idx + 1];
        const float br = hi[k], bi = hi[k + 1];
        const float vr = br * wr - bi * wi;
        const float vi = br * wi + bi * wr;
        const float ur = lo[k], ui = lo[k + 1];
        lo[k] = ur + vr;
        lo[k + 1] = ui + vi;
        hi[k] = ur - vr;
        hi[k + 1] = ui - vi;
      }
    }
  }

  if (inverse) {
    const float scale = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) a[i] *= scale;
  }
}

void reference_dechirp_rotate(const cfloat* w, std::size_t m, const cfloat* c,
                              const cfloat* r, cfloat* out) {
  const float* wf = reinterpret_cast<const float*>(w);
  const float* cf = reinterpret_cast<const float*>(c);
  const float* rf = reinterpret_cast<const float*>(r);
  float* of = reinterpret_cast<float*>(out);
  for (std::size_t i = 0; i < 2 * m; i += 2) {
    const float ar = wf[i], ai = wf[i + 1];
    const float br = cf[i], bi = cf[i + 1];
    const float tr = ar * br - ai * bi;
    const float ti = ar * bi + ai * br;
    const float pr = rf[i], pi = rf[i + 1];
    of[i] = tr * pr - ti * pi;
    of[i + 1] = tr * pi + ti * pr;
  }
}

void reference_mag_fold(const cfloat* s, std::size_t n, std::size_t image,
                        float* out) {
  const float* sf = reinterpret_cast<const float*>(s);
  if (image == 0) {
    for (std::size_t k = 0; k < n; ++k) {
      const float re = sf[2 * k], im = sf[2 * k + 1];
      out[k] = re * re + im * im;
    }
    return;
  }
  const float* gf = sf + 2 * image;
  for (std::size_t k = 0; k < n; ++k) {
    const float re = sf[2 * k], im = sf[2 * k + 1];
    const float re2 = gf[2 * k], im2 = gf[2 * k + 1];
    out[k] = (re * re + im * im) + (re2 * re2 + im2 * im2);
  }
}

void reference_rotate_accumulate(const cfloat* s, std::size_t n, cfloat rot,
                                 cfloat* sum) {
  const float rr = rot.real();
  const float ri = rot.imag();
  const float* sf = reinterpret_cast<const float*>(s);
  float* af = reinterpret_cast<float*>(sum);
  for (std::size_t i = 0; i < 2 * n; i += 2) {
    const float sr = sf[i], si = sf[i + 1];
    af[i] += sr * rr - si * ri;
    af[i + 1] += sr * ri + si * rr;
  }
}

}  // namespace tnb::testing
