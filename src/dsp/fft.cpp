#include "dsp/fft.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/math_util.hpp"
#include "dsp/fft_backend.hpp"

namespace tnb::dsp {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_pow2(n)) {
    throw std::invalid_argument("FftPlan: size must be a power of two");
  }
  log2n_ = log2_pow2(n);

  bitrev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t r = 0;
    std::size_t x = i;
    for (unsigned b = 0; b < log2n_; ++b) {
      r = (r << 1) | (x & 1);
      x >>= 1;
    }
    bitrev_[i] = r;
    if (i < r) bitrev_swaps_.push_back({static_cast<std::uint32_t>(i), r});
  }

  // Every twiddle is e^{-j 2 pi k / N} for some k in [0, N/2), rounded
  // from double once; a stage of half-width h reads k = i * N / 2h for
  // i in [0, h). The inverse tables hold the conjugates.
  std::vector<cfloat> base(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    base[k] = {static_cast<float>(std::cos(ang)),
               static_cast<float>(std::sin(ang))};
  }
  stage_tw_fwd_.resize(n);
  stage_tw_inv_.resize(n);
  stage_tw_re_.resize(n);
  stage_tw_im_fwd_.resize(n);
  stage_tw_im_inv_.resize(n);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t step = n / (2 * half);
    for (std::size_t i = 0; i < half; ++i) {
      const cfloat w = base[i * step];
      const cfloat w_inv = std::conj(w);
      stage_tw_fwd_[half + i] = w;
      stage_tw_inv_[half + i] = w_inv;
      stage_tw_re_[half + i] = w.real();
      stage_tw_im_fwd_[half + i] = w.imag();
      stage_tw_im_inv_[half + i] = w_inv.imag();
    }
  }
}

void FftPlan::transform(std::span<cfloat> data, bool inverse) const {
  if (data.size() != n_) {
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  }
  active_fft_backend().transform(*this, data.data(), inverse);
}

void FftPlan::forward(std::span<cfloat> data) const { transform(data, false); }

void FftPlan::inverse(std::span<cfloat> data) const { transform(data, true); }

void FftPlan::forward(std::span<const cfloat> in, std::span<cfloat> out) const {
  if (out.size() != n_ || in.size() > n_) {
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  }
  std::copy(in.begin(), in.end(), out.begin());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(in.size()), out.end(),
            cfloat{0.0f, 0.0f});
  transform(out, false);
}

void FftPlan::forward_batch(std::span<cfloat> data, std::size_t count) const {
  if (data.size() != n_ * count) {
    throw std::invalid_argument("FftPlan: batch buffer size mismatch");
  }
  if (count == 0) return;
  active_fft_backend().transform_batch(*this, data.data(), count, false);
}

void FftPlan::inverse_batch(std::span<cfloat> data, std::size_t count) const {
  if (data.size() != n_ * count) {
    throw std::invalid_argument("FftPlan: batch buffer size mismatch");
  }
  if (count == 0) return;
  active_fft_backend().transform_batch(*this, data.data(), count, true);
}

namespace {

/// Largest supported log2 size of the shared plan cache. TnB transforms
/// are at most 2^SF * OSF = 2^12 * 8 = 2^15; 2^24 leaves generous room.
constexpr unsigned kMaxPlanLog2 = 24;

}  // namespace

const FftPlan& fft_plan(std::size_t n) {
  // Lock-free lookup: one atomic plan pointer per power-of-two size,
  // indexed by log2(n). Steady state is a single acquire load, so
  // concurrent decodes (--jobs, the streaming pipeline) never contend.
  // On a first-use race both threads build a plan and the CAS loser
  // discards its copy — plans are immutable and cheap relative to the
  // transforms they serve. Published plans live for the process.
  static std::array<std::atomic<const FftPlan*>, kMaxPlanLog2 + 1> cache{};

  if (!is_pow2(n)) {
    throw std::invalid_argument("fft_plan: size must be a power of two");
  }
  const unsigned l = log2_pow2(n);
  if (l > kMaxPlanLog2) {
    throw std::invalid_argument("fft_plan: size exceeds 2^24");
  }
  std::atomic<const FftPlan*>& slot = cache[l];
  const FftPlan* plan = slot.load(std::memory_order_acquire);
  if (plan != nullptr) return *plan;

  auto fresh = std::make_unique<const FftPlan>(n);
  const FftPlan* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *expected;
}

void fft_inplace(std::span<cfloat> data) { fft_plan(data.size()).forward(data); }

void ifft_inplace(std::span<cfloat> data) { fft_plan(data.size()).inverse(data); }

std::vector<cfloat> fft(std::span<const cfloat> data) {
  std::vector<cfloat> out(data.begin(), data.end());
  fft_inplace(out);
  return out;
}

std::vector<cfloat> ifft(std::span<const cfloat> data) {
  std::vector<cfloat> out(data.begin(), data.end());
  ifft_inplace(out);
  return out;
}

}  // namespace tnb::dsp
