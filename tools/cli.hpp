// tnb::cli — the one flag parser of tnb_gen, tnb_eval and tnb_streamd.
//
// Each tool lists its flags once; the list parses argv and prints --help
// (on stdout, exit 0). A Reader checks one value and stores it through a
// reference, which must outlive the Parser. A rejected value ends the
// parse with "<tool>: <flag>: <reason>", and the tool exits 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "impair/impairment.hpp"
#include "lora/coding.hpp"
#include "lora/params.hpp"

namespace tnb::cli {

/// Stores one value; returns why it was rejected, or "" when accepted.
using Reader = std::function<std::string(std::string_view value)>;

struct Flag {
  std::string name;  ///< "--sf N"; a switch has no value placeholder
  Reader read;
  bool required = false;
  std::string note = {};  ///< --help line below the synopsis (the choices)
};

struct Parsed {
  bool help = false;  ///< --help was given
  std::string error;  ///< "<tool>: <flag>: <reason>"; "" when accepted
};

class Parser {
 public:
  Parser(std::string tool, std::vector<Flag> flags)
      : tool_(std::move(tool)), flags_(std::move(flags)) {}
  /// Applies `args` (argv without the program name) in order, up to --help
  /// or the first rejected argument.
  Parsed parse(const std::vector<std::string>& args) const;
  /// The synopsis, then the flags' notes.
  std::string usage() const;
  /// For main(): nullopt to run the tool, else its exit status after the
  /// usage went to stdout (0) or the error to stderr (2).
  std::optional<int> run(int argc, char** argv) const;

 private:
  std::string tool_;
  std::vector<Flag> flags_;
};

/// Parses all of `s` as a T: no blanks, no '+', no '-' for unsigned T.
template <class T>
bool to_number(std::string_view s, T& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && end == s.data() + s.size();
}

/// `v` in the shortest form that parses back.
template <class T>
std::string to_text(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// An integer or a floating-point number in [lo, hi] (so not NaN or inf).
template <class T>
Reader number(T& dst, T lo, T hi) {
  return [&dst, lo, hi](std::string_view v) -> std::string {
    T x{};
    if (!to_number(v, x) || !(x >= lo && x <= hi)) {
      return "expected a number in " + to_text(lo) + ".." + to_text(hi) +
             ", got '" + std::string(v) + "'";
    }
    dst = x;
    return {};
  };
}

/// The pieces of `s` between `sep`s; one empty piece when `s` is empty.
std::vector<std::string_view> split(std::string_view s, char sep);
/// Comma-separated numbers in [lo, hi], appended to dst.
Reader numbers(std::vector<unsigned>& dst, unsigned lo, unsigned hi);
/// Any non-empty text.
Reader text(std::string& dst);
Reader set(bool& dst);
/// `name` ("--scheme NAME") taking one of the comma-separated names in
/// `valid`, which --help lists.
Flag one_of(std::string name, std::string& dst, std::string valid);

// Shared flags. Each PHY value must pass lora::Params::validate.
Flag sf(lora::Params& p);
Flag cr(lora::Params& p);
Flag bw(lora::Params& p);  ///< in kHz
Flag osf(lora::Params& p);
Flag wire_format(lora::Coding& coding);
/// Repeatable: appends one impair::parse_impairment stage per flag.
Flag impair(std::vector<impair::ImpairmentConfig>& stages);
Flag impair_seed(std::uint64_t& seed);
/// 1..255 on-air bytes, CRC16 included; 0 (no flag) is explicit headers.
Flag implicit_len(std::uint8_t& len);
/// Installs the FFT backend as it parses.
Flag fft_backend();
/// Worker threads, 1..1024 (callers default to common::default_jobs()).
Flag jobs(int& n);

}  // namespace tnb::cli
