#include "fleet/channelizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "dsp/fft.hpp"

namespace tnb::fleet {
namespace {

void check_channel_count(unsigned n) {
  if (n == 0 || (n & (n - 1)) != 0 || n > 1024) {
    throw std::invalid_argument(
        "Channelizer: n_channels must be a power of two <= 1024");
  }
}

}  // namespace

double channel_center_offset(unsigned k, unsigned n_channels) {
  const double kk = static_cast<double>(k % n_channels);
  return kk <= n_channels / 2 ? kk : kk - static_cast<double>(n_channels);
}

Channelizer::Channelizer(unsigned n_channels) : n_channels_(n_channels) {
  check_channel_count(n_channels_);
  work_.resize(n_channels_);
}

void Channelizer::push(std::span<const cfloat> wideband,
                       std::vector<IqBuffer>& out) {
  if (out.size() != n_channels_) {
    throw std::invalid_argument("Channelizer::push: out.size() != n_channels");
  }
  const std::size_t n = n_channels_;
  if (n == 1) {  // degenerate single-channel fleet: pure passthrough
    out[0].insert(out[0].end(), wideband.begin(), wideband.end());
    blocks_ += wideband.size();
    return;
  }

  // Fast path: whole blocks straight from the input once the carried-over
  // tail (if any) has been completed and processed.
  std::size_t pos = 0;
  if (!pending_.empty()) {
    const std::size_t need = n - pending_.size();
    const std::size_t take = std::min(need, wideband.size());
    pending_.insert(pending_.end(), wideband.begin(),
                    wideband.begin() + static_cast<std::ptrdiff_t>(take));
    pos = take;
    if (pending_.size() < n) return;
    process_block(pending_.data(), out);
    pending_.clear();
  }
  for (; pos + n <= wideband.size(); pos += n) {
    process_block(wideband.data() + pos, out);
  }
  pending_.insert(pending_.end(),
                  wideband.begin() + static_cast<std::ptrdiff_t>(pos),
                  wideband.end());
}

void Channelizer::process_block(const cfloat* block, std::vector<IqBuffer>& out) {
  const std::size_t n = n_channels_;
  const float inv_n = 1.0f / static_cast<float>(n);
  std::copy(block, block + n, work_.begin());
  // One N-point DFT separates the channels; the mixing phase is
  // block-periodic (e^{-j 2 pi k (mN + r) / N} = e^{-j 2 pi k r / N}), so
  // no per-block phase correction is needed.
  dsp::fft_plan(n).forward(work_);
  for (std::size_t k = 0; k < n; ++k) {
    out[k].push_back(work_[k] * inv_n);
  }
  ++blocks_;
}

IqBuffer mix_channels(std::span<const IqBuffer> channels, unsigned n_channels) {
  check_channel_count(n_channels);
  if (channels.size() > n_channels) {
    throw std::invalid_argument("mix_channels: more channels than n_channels");
  }
  std::size_t longest = 0;
  for (const IqBuffer& c : channels) longest = std::max(longest, c.size());
  const std::size_t n = n_channels;
  IqBuffer wideband(longest * n);
  if (longest == 0) return wideband;
  if (n == 1) {
    std::copy(channels[0].begin(), channels[0].end(), wideband.begin());
    return wideband;
  }
  const dsp::FftPlan& plan = dsp::fft_plan(n);
  IqBuffer work(n);
  const float gain = static_cast<float>(n);  // undo the IFFT's 1/N
  for (std::size_t m = 0; m < longest; ++m) {
    for (std::size_t k = 0; k < n; ++k) {
      work[k] = k < channels.size() && m < channels[k].size()
                    ? channels[k][m]
                    : cfloat{0.0f, 0.0f};
    }
    plan.inverse(work);
    for (std::size_t r = 0; r < n; ++r) {
      wideband[m * n + r] = work[r] * gain;
    }
  }
  return wideband;
}

}  // namespace tnb::fleet
