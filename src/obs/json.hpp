// Minimal one-line JSON object/array writer — the single serialization
// path behind every stats line the tools print (fleet::FleetStats::to_json,
// rx::ReceiverStats::to_json, stream::StreamingStats::to_json), so the
// schemas cannot drift apart field by field.
//
// Emission is strictly append-only and in call order; keys are written
// exactly as given (callers pass plain identifiers). Strings are escaped
// per RFC 8259; doubles use %.9g (shortest round-trippable for the float
// data carried here) and non-finite values serialize as null.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cmath>
#include <string>
#include <string_view>

namespace tnb::obs {

class JsonWriter {
 public:
  JsonWriter& begin_object() {
    comma();
    out_ += '{';
    first_ = true;
    return *this;
  }
  JsonWriter& end_object() {
    out_ += '}';
    first_ = false;
    return *this;
  }
  JsonWriter& begin_array() {
    comma();
    out_ += '[';
    first_ = true;
    return *this;
  }
  JsonWriter& end_array() {
    out_ += ']';
    first_ = false;
    return *this;
  }

  /// Writes `"key":` — must be followed by exactly one value/container.
  JsonWriter& key(std::string_view k) {
    comma();
    string_raw(k);
    out_ += ':';
    first_ = true;  // the upcoming value must not be comma-prefixed
    return *this;
  }

  JsonWriter& value(std::uint64_t v) {
    comma();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    comma();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::uint32_t v) { return value(std::uint64_t{v}); }
  JsonWriter& value(std::int32_t v) { return value(std::int64_t{v}); }
  JsonWriter& value(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::string_view s) {
    comma();
    string_raw(s);
    return *this;
  }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  /// Without this overload a string literal would convert to bool (a
  /// standard conversion beats string_view's converting constructor).
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }

  /// Splices a pre-serialized JSON fragment in value position (used to
  /// embed one stats object inside another without re-parsing).
  JsonWriter& raw(std::string_view json) {
    comma();
    out_.append(json);
    return *this;
  }

  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void string_raw(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
};

}  // namespace tnb::obs
