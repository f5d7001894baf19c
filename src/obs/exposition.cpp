// Snapshot exporters: Prometheus text exposition and histogram summaries.
//
// Prometheus format (https://prometheus.io/docs/instrumenting/exposition_formats/):
// one HELP/TYPE pair per metric family (consecutive same-name snapshot
// entries share a family — Snapshot is sorted by name), histogram buckets
// emitted cumulatively with `le` labels plus the `_sum`/`_count` series.
// Values print as %.17g so counters survive a round trip through a float
// parser exactly.
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.hpp"

namespace tnb::obs {
namespace {

const char* kind_name(Snapshot::Kind k) {
  switch (k) {
    case Snapshot::Kind::kCounter: return "counter";
    case Snapshot::Kind::kGauge: return "gauge";
    case Snapshot::Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Escapes a HELP text / label value for the text format.
std::string escape(const std::string& s, bool label_value) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else if (c == '"' && label_value) out += "\\\"";
    else out += c;
  }
  return out;
}

/// `{a="x",b="y"}` — empty string when there are no labels. `extra`
/// appends one more label (the histogram `le`).
std::string label_block(const Labels& labels, const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + escape(v, /*label_value=*/true) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key + "=\"" + extra_value + "\"";
  }
  return out + "}";
}

void append_sample(std::string& out, const std::string& series,
                   const std::string& labels, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += series + labels + " " + buf + "\n";
}

std::string format_bound(double b) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", b);
  return buf;
}

}  // namespace

std::string Snapshot::to_prometheus() const {
  std::string out;
  const std::string* open_family = nullptr;
  for (const Metric& m : metrics) {
    if (open_family == nullptr || *open_family != m.name) {
      out += "# HELP " + m.name + " " +
             escape(m.help.empty() ? m.name : m.help, false) + "\n";
      out += "# TYPE " + m.name + " " + kind_name(m.kind) + "\n";
      open_family = &m.name;
    }
    switch (m.kind) {
      case Kind::kCounter:
      case Kind::kGauge:
        append_sample(out, m.name, label_block(m.labels), m.value);
        break;
      case Kind::kHistogram: {
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          cum += m.buckets[i];
          const std::string le =
              i < m.bounds.size() ? format_bound(m.bounds[i]) : "+Inf";
          append_sample(out, m.name + "_bucket", label_block(m.labels, "le", le),
                        static_cast<double>(cum));
        }
        append_sample(out, m.name + "_sum", label_block(m.labels), m.sum);
        append_sample(out, m.name + "_count", label_block(m.labels),
                      static_cast<double>(m.count));
        break;
      }
    }
  }
  return out;
}

std::string histogram_summary(const Snapshot::Metric& h) {
  if (h.count == 0) return "n=0";
  char buf[128];
  std::snprintf(buf, sizeof buf, "n=%" PRIu64 " mean=%.4g p50=%.4g p99=%.4g",
                h.count, h.sum / static_cast<double>(h.count),
                histogram_quantile(h, 0.5), histogram_quantile(h, 0.99));
  return buf;
}

}  // namespace tnb::obs
