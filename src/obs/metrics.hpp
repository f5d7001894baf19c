// tnb::obs — the observability subsystem's metric primitives and registry.
//
// A Registry owns named counters, gauges and fixed-bucket histograms.
// Registration (cold path) takes a mutex; every update (hot path) is a
// relaxed atomic on a metric that never moves, so pipeline stages and the
// streaming ring can record from any thread without coordination. Handles
// (CounterRef & co.) are nullable: instrumentation sites built against a
// null registry carry a null handle and every record call degenerates to a
// pointer test, which is how the whole subsystem is disabled with zero
// overhead — see Registry::global().
//
// A Snapshot is a consistent-enough point-in-time copy of every metric
// (counters may advance between reads; each individual value is atomic),
// exported either as Prometheus text exposition or one-line JSON
// (exposition.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tnb::obs {

/// Label set of one metric, e.g. {{"stage", "detect"}}. Order is
/// significant for identity (registration serializes them as given).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed value (queue depths, high-water marks).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (lock-free running maximum).
  void update_max(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram (Prometheus semantics: `bounds` are inclusive
/// upper bounds, one implicit +Inf bucket on top). Buckets are stored
/// non-cumulative internally; exporters emit the cumulative form.
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket i (i == bounds().size() is +Inf).
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< bounds+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};  ///< CAS-accumulated (see observe())
};

/// Nullable handles: a default-constructed ref records nothing. All
/// instrumentation goes through these so a disabled registry costs one
/// branch per site.
class CounterRef {
 public:
  CounterRef() = default;
  explicit CounterRef(Counter* c) : c_(c) {}
  void inc(std::uint64_t n = 1) const {
    if (c_ != nullptr) c_->inc(n);
  }
  bool enabled() const { return c_ != nullptr; }
  std::uint64_t value() const { return c_ != nullptr ? c_->value() : 0; }

 private:
  Counter* c_ = nullptr;
};

class GaugeRef {
 public:
  GaugeRef() = default;
  explicit GaugeRef(Gauge* g) : g_(g) {}
  void set(std::int64_t v) const {
    if (g_ != nullptr) g_->set(v);
  }
  void add(std::int64_t d) const {
    if (g_ != nullptr) g_->add(d);
  }
  void update_max(std::int64_t v) const {
    if (g_ != nullptr) g_->update_max(v);
  }
  bool enabled() const { return g_ != nullptr; }
  std::int64_t value() const { return g_ != nullptr ? g_->value() : 0; }

 private:
  Gauge* g_ = nullptr;
};

class HistogramRef {
 public:
  HistogramRef() = default;
  explicit HistogramRef(Histogram* h) : h_(h) {}
  void observe(double v) const {
    if (h_ != nullptr) h_->observe(v);
  }
  bool enabled() const { return h_ != nullptr; }
  std::uint64_t count() const { return h_ != nullptr ? h_->count() : 0; }
  double sum() const { return h_ != nullptr ? h_->sum() : 0.0; }

 private:
  Histogram* h_ = nullptr;
};

/// Point-in-time copy of a registry, ready for exposition. Metrics are
/// ordered by (name, labels) so output is deterministic.
struct Snapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind = Kind::kCounter;
    std::string name;
    std::string help;
    Labels labels;
    double value = 0.0;           ///< counter / gauge
    std::vector<double> bounds;   ///< histogram upper bounds
    std::vector<std::uint64_t> buckets;  ///< non-cumulative, bounds+1 slots
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<Metric> metrics;

  /// Lvalue-qualified: the pointer aims into this snapshot, so calling it
  /// on a temporary (`reg.snapshot().find(...)`) would dangle — deleted.
  const Metric* find(std::string_view name, const Labels& labels = {}) const&;
  const Metric* find(std::string_view name,
                     const Labels& labels = {}) const&& = delete;

  /// Prometheus text exposition (HELP/TYPE per family, cumulative
  /// histogram buckets with le labels, counters suffixed _total by
  /// convention of the caller-supplied names).
  std::string to_prometheus() const;
};

/// Estimated q-quantile (0..1) of a snapshot histogram, by linear
/// interpolation inside the owning bucket; observations beyond the last
/// finite bound clamp to it. NaN when the histogram is empty.
double histogram_quantile(const Snapshot::Metric& h, double q);

/// One-line human summary of a snapshot histogram:
/// "n=<count> mean=<m> p50=<q50> p99=<q99>" ("n=0" when empty). Values are
/// in the histogram's native unit; the caller provides context.
std::string histogram_summary(const Snapshot::Metric& h);

/// Thread-safe registry of named metrics. Registering the same
/// (name, labels) twice returns the same metric; re-registering under a
/// different kind (or different histogram bounds) throws.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  CounterRef counter(const std::string& name, const std::string& help = "",
                     Labels labels = {});
  GaugeRef gauge(const std::string& name, const std::string& help = "",
                 Labels labels = {});
  HistogramRef histogram(const std::string& name,
                         std::span<const double> bounds,
                         const std::string& help = "", Labels labels = {});

  Snapshot snapshot() const;

  /// Process-wide registry used by instrumentation sites that were not
  /// handed one explicitly (Receiver, StreamingReceiver, IqRing default to
  /// it). Null — the default — disables those sites entirely: handles
  /// resolved against a null registry are null and never touch memory.
  static Registry* global();
  /// Installs (or, with nullptr, removes) the process-wide registry.
  /// Affects instrumented objects constructed afterwards.
  static void set_global(Registry* r);

 private:
  struct Entry {
    Snapshot::Kind kind;
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_insert(Snapshot::Kind kind, const std::string& name,
                        const std::string& help, Labels&& labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< stable addresses
};

/// Resolves the registry an instrumented component should record into:
/// the explicit one when given, else the process-wide global (may be null).
inline Registry* resolve(Registry* explicit_registry) {
  return explicit_registry != nullptr ? explicit_registry : Registry::global();
}

}  // namespace tnb::obs
