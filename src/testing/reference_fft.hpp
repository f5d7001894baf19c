// Reference loops for the scalar dsp::FftBackend: the one-element radix-2
// transform and elementwise kernels the four-lane scalar backend replaced,
// kept verbatim as a test oracle. The backend promises the same IEEE
// operations per output element in the same order, so its outputs must
// equal these byte for byte (tests/test_fft_backend.cpp,
// oracle_fft_backend). Compiled with -ffp-contract=off like the backend.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "dsp/fft.hpp"

namespace tnb::testing {

/// In-place DFT of one plan-size buffer: bit-reverse swaps, radix-2
/// butterflies over the stride-indexed twiddles e^{-+j 2 pi k / N}
/// (k in [0, N/2), computed here from the plan's original expression),
/// and 1/N scaling for the inverse.
void reference_transform(const dsp::FftPlan& plan, cfloat* data, bool inverse);

/// out[i] = (w[i] * c[i]) * r[i], each product as (ac-bd, ad+bc).
void reference_dechirp_rotate(const cfloat* w, std::size_t m, const cfloat* c,
                              const cfloat* r, cfloat* out);

/// out[k] = |s[k]|^2 (+ |s[k + image]|^2 when image != 0).
void reference_mag_fold(const cfloat* s, std::size_t n, std::size_t image,
                        float* out);

/// sum[k] += s[k] * rot.
void reference_rotate_accumulate(const cfloat* s, std::size_t n, cfloat rot,
                                 cfloat* sum);

}  // namespace tnb::testing
