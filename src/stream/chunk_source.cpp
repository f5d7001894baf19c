#include "stream/chunk_source.hpp"

#include <algorithm>

#include "sim/trace_io.hpp"

namespace tnb::stream {

std::size_t BufferSource::next(IqBuffer& out, std::size_t max_samples) {
  out.clear();
  const std::size_t n = std::min(max_samples, samples_.size() - pos_);
  out.assign(samples_.begin() + static_cast<std::ptrdiff_t>(pos_),
             samples_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return n;
}

std::size_t IstreamSource::next(IqBuffer& out, std::size_t max_samples) {
  if (truncated_) {
    out.clear();
    return 0;
  }
  return sim::read_trace_i16_chunk(*in_, out, max_samples, scale_,
                                   &byte_offset_, &truncated_);
}

}  // namespace tnb::stream
