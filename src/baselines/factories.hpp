// Preconfigured receivers for every scheme in the paper's evaluation
// (Section 8.2 and 8.5) plus the related-work peers and hybrids: TnB,
// Thrive (TnB without BEC), Sibling (Thrive without the history cost),
// LoRaPHY, CIC, CIC+BEC, AlignTrack*, AlignTrack*+BEC, CoRa, CoRa+BEC,
// LZn-Thrive (LZn-style sync front end feeding Thrive) and CoRa-TnB (CoRa
// first pass, Thrive arbitrating low-confidence symbols, BEC). All share
// the same checking-point machinery, differing only in the peak assigner,
// the synchronization front end and the error-correction decoder —
// mirroring how the paper lends its packet detection to the compared
// schemes so the comparison isolates the algorithms. Each scheme is one
// row of a table in factories.cpp: its paper name, the use_bec, two_pass
// and Thrive use_history switches, and its assigner and sync front end.
// make_receiver writes the row into rx::ReceiverOptions, so the options
// alone carry the scheme: a Receiver, StreamingReceiver or fleet lane built
// from make_receiver(...).options() runs that scheme.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/receiver.hpp"

namespace tnb::base {

enum class Scheme {
  kTnB,            ///< Thrive + BEC, two passes
  kThrive,         ///< Thrive + default decoder
  kSibling,        ///< sibling cost only + default decoder
  kLoRaPhy,        ///< per-symbol argmax + default decoder, single pass
  kCic,            ///< CIC assignment + default decoder
  kCicBec,         ///< CIC assignment + BEC ("CIC+")
  kAlignTrack,     ///< AlignTrack* assignment + default decoder
  kAlignTrackBec,  ///< AlignTrack* assignment + BEC ("AlignTrack*+")
  kCoRa,           ///< CoRa amplitude decision + default decoder
  kCoRaBec,        ///< CoRa amplitude decision + BEC ("CoRa+")
  kLZnThrive,      ///< LZn-style sync front end + Thrive + default decoder
  kCoRaTnB,        ///< CoRa first pass, Thrive arbiter, BEC ("CoRa-TnB")
};

/// Human-readable scheme name as used in the paper's figures.
std::string scheme_name(Scheme s);

/// Lowercase command-line token for the scheme (what tnb_eval --scheme
/// accepts): scheme_name lowercased with '*' dropped, e.g. "aligntrack+".
std::string scheme_cli_name(Scheme s);

/// Parses a command-line token (as produced by scheme_cli_name);
/// std::nullopt on an unknown token.
std::optional<Scheme> parse_scheme(const std::string& token);

/// Comma-separated scheme_cli_name list of all schemes, for --help text
/// and unknown-scheme error messages.
std::string scheme_cli_list();

/// All schemes, in the order the paper lists them (new peers appended).
std::vector<Scheme> all_schemes();

/// Builds a fully configured receiver for the scheme. `implicit` switches
/// every scheme to LoRa implicit-header operation; `coding` selects the
/// frame format (paper or gr-lora-sdr wire format) — orthogonal to the
/// scheme, which only picks the peak assigner / sync front end /
/// error-correction decoder.
rx::Receiver make_receiver(Scheme s, const lora::Params& p,
                           std::optional<rx::ImplicitHeader> implicit = {},
                           lora::Coding coding = lora::Coding::kPaper);

}  // namespace tnb::base
