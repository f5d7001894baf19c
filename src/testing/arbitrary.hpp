// Structured generators: FuzzInput bytes -> valid domain objects.
//
// Each generator maps *any* byte string onto a valid instance (Params that
// pass validate(), Headers with in-range fields, payloads within the on-air
// length limit), so harnesses separate two concerns: the oracles probe
// decoder behaviour under adversarial *signal* corruption, while the raw
// byte-level harnesses probe parser totality on malformed *input*. Keeping
// the generators in one place also pins the byte layout the corpus seeds
// under tests/fuzz/corpus/ were written against.
#pragma once

#include <cstdint>
#include <vector>

#include "lora/coding.hpp"
#include "lora/params.hpp"
#include "testing/fuzz_input.hpp"

namespace tnb::testing {

/// A Params that always satisfies Params::validate(). OSF is kept in
/// {1,2,4,8} and SF/CR/LDRO cover their full valid ranges.
lora::Params arbitrary_params(FuzzInput& in);

/// Like arbitrary_params but with OSF pinned to 1 and SF capped, for
/// harnesses whose cost scales with samples per symbol (streaming).
lora::Params arbitrary_params_small(FuzzInput& in);

/// A Header with valid field ranges (CR 1..4); payload_len spans 0..255.
lora::Header arbitrary_header(FuzzInput& in);

/// Application payload of 1..max_bytes bytes (on-air limit: +2 CRC bytes
/// must stay <= 255).
std::vector<std::uint8_t> arbitrary_payload(FuzzInput& in,
                                            std::size_t max_bytes = 64);

/// Corrupts up to `max_symbols` entries of `symbols` in place, each by a
/// nonzero XOR within the SF-bit symbol range. Returns the indices hit
/// (deduplicated). max_symbols = 0 corrupts nothing.
std::vector<std::size_t> corrupt_symbols(std::vector<std::uint32_t>& symbols,
                                         unsigned sf, FuzzInput& in,
                                         std::size_t max_symbols);

/// Corrupts the given block columns in place (rows of 4+CR bits): each
/// error column gets a nonzero XOR pattern somewhere, mirroring the
/// one-symbol-one-column error model BEC is built on.
void corrupt_block_columns(std::vector<std::uint8_t>& rows,
                           const std::vector<unsigned>& cols, FuzzInput& in);

/// `n_cols` distinct column indices out of [0, 4+cr).
std::vector<unsigned> arbitrary_columns(FuzzInput& in, unsigned cr,
                                        unsigned n_cols);

}  // namespace tnb::testing
