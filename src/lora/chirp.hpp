// Chirp waveform generation, including fractional-delay evaluation.
//
// The base upchirp C is a unit-amplitude complex tone whose frequency rises
// linearly across the symbol; a data symbol is C cyclically shifted by h
// chirp samples. Because the phase is an analytic function of time, a packet
// can be synthesized at any fractional delay on the receiver sampling grid,
// which is what lets the simulator exercise TnB's fractional timing search.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "lora/params.hpp"

namespace tnb::lora {

/// Phase (radians) of the base upchirp at chirp-sample position x in [0, N).
/// psi(x) = 2*pi*(x^2/(2N) - x/2): frequency sweeps from -BW/2 to +BW/2.
double upchirp_phase(double x, std::size_t n_bins);

/// Position on the base upchirp of a symbol with cyclic shift `h` at local
/// time `u` chirp samples into the symbol: x = u + h, wrapped into [0, N).
double upchirp_position(double u, std::uint32_t h, std::size_t n_bins);

/// Complex value of the base upchirp at position x: e^{j psi(x)}.
cfloat base_upchirp(double x, std::size_t n_bins);

/// Complex value of an upchirp symbol with cyclic shift `h`, evaluated at
/// local time `u` chirp samples into the symbol (u in [0, N)):
/// base_upchirp(upchirp_position(u, h)).
cfloat eval_upchirp(double u, std::uint32_t h, std::size_t n_bins);

/// Complex value of the downchirp (conjugate base chirp) at local time u.
cfloat eval_downchirp(double u, std::size_t n_bins);

/// Oversampled base upchirp: sps = N * OSF samples, sample i at u = i/OSF.
std::vector<cfloat> make_upchirp(const Params& p, std::uint32_t shift = 0);

/// Oversampled base downchirp (conjugate of the zero-shift upchirp).
std::vector<cfloat> make_downchirp(const Params& p);

}  // namespace tnb::lora
