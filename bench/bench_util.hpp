// Shared helpers for the figure/table reproduction benches.
//
// Every bench prints the same rows/series the paper reports. Defaults are
// sized for a single-core laptop run of the whole suite; set
// TNB_BENCH_FULL=1 for paper-scale durations and sweeps.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/factories.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/stage_timer.hpp"
#include "sim/deployment.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"

namespace tnb::bench {

inline bool full_mode() {
  const char* v = std::getenv("TNB_BENCH_FULL");
  return v != nullptr && v[0] != '0';
}

/// Monotonic wall-clock stopwatch for the per-run / per-bench timings.
class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// RAII install of a bench-local tnb::obs registry as the process global,
/// so receivers constructed by worker cells record pipeline stage timings
/// into it. Construct before the parallel_for (handles resolve at receiver
/// construction).
class ObsScope {
 public:
  ObsScope() { obs::Registry::set_global(&registry_); }
  ~ObsScope() { obs::Registry::set_global(nullptr); }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;
  obs::Registry& registry() { return registry_; }

  /// Per-cell wall-clock histogram (seconds). Workers observe one value
  /// per cell; its sum is the estimated --jobs 1 wall clock.
  obs::HistogramRef cell_seconds() {
    static constexpr double kBounds[] = {0.01, 0.03, 0.1,  0.3,  1.0,
                                         3.0,  10.0, 30.0, 100.0};
    return registry_.histogram("tnb_bench_cell_seconds", kBounds,
                               "Wall-clock seconds per bench cell");
  }

 private:
  obs::Registry registry_;
};

/// Run report at the end of a parallel bench (see bench/README.md
/// "Parallel runs"): a `runs=… jobs=… speedup=…` line (speedup from
/// the cell-seconds histogram sum, the estimated --jobs 1 wall clock),
/// then one `hist` line per histogram in the snapshot — per-cell wall
/// clocks and the per-stage pipeline timings.
inline void print_obs_summary(const obs::Snapshot& snap, std::size_t runs,
                              int jobs, double wall_s) {
  const obs::Snapshot::Metric* cell = snap.find("tnb_bench_cell_seconds");
  const double seq_s = cell != nullptr ? cell->sum : 0.0;
  std::printf("runs=%zu jobs=%d speedup=%.2fx\n", runs, jobs,
              wall_s > 0.0 ? seq_s / wall_s : 1.0);
  for (const obs::Snapshot::Metric& m : snap.metrics) {
    if (m.kind != obs::Snapshot::Kind::kHistogram) continue;
    std::string label = m.name;
    for (const auto& [k, v] : m.labels) label += "{" + v + "}";
    std::printf("hist %-40s %s\n", label.c_str(),
                obs::histogram_summary(m).c_str());
  }
}

/// Trace duration in seconds (paper: 30 s runs).
inline double trace_duration() { return full_mode() ? 10.0 : 2.0; }

/// Offered loads in pkt/s (paper: 5..25 step 5).
inline std::vector<double> load_sweep() {
  if (full_mode()) return {5.0, 10.0, 15.0, 20.0, 25.0};
  return {5.0, 15.0, 25.0};
}

struct SchemeResult {
  std::string name;
  sim::EvalResult eval;
  rx::ReceiverStats stats;
};

/// Builds a deployment trace at an offered load.
inline sim::Trace make_deployment_trace(const lora::Params& params,
                                        const sim::Deployment& dep,
                                        double load_pps, std::uint64_t seed,
                                        const chan::Channel* channel = nullptr,
                                        unsigned n_antennas = 1) {
  Rng rng(seed);
  sim::TraceOptions opt;
  opt.duration_s = trace_duration();
  opt.load_pps = load_pps;
  opt.nodes = dep.draw_nodes(rng);
  opt.channel = channel;
  opt.n_antennas = n_antennas;
  return sim::build_trace(params, opt, rng);
}

/// Detection + fractional sync for one trace — run once and share across
/// schemes (they all use TnB's detector, as in the paper's methodology).
inline std::vector<rx::DetectedPacket> detect_once(const lora::Params& params,
                                                   const sim::Trace& trace,
                                                   bool use_all_antennas = false) {
  rx::Receiver receiver(params);
  return receiver.detect(use_all_antennas
                             ? trace.antenna_spans()
                             : std::vector<std::span<const cfloat>>{trace.iq});
}

/// Decodes one trace with one scheme and scores it. Pass `detections` to
/// reuse a shared detection result.
inline SchemeResult run_scheme(
    base::Scheme scheme, const lora::Params& params, const sim::Trace& trace,
    bool use_all_antennas = false,
    const std::vector<rx::DetectedPacket>* detections = nullptr) {
  rx::Receiver receiver = base::make_receiver(scheme, params);
  Rng rng(0xBEC + static_cast<std::uint64_t>(scheme));
  SchemeResult r;
  r.name = base::scheme_name(scheme);
  const std::vector<std::span<const cfloat>> spans =
      use_all_antennas ? trace.antenna_spans()
                       : std::vector<std::span<const cfloat>>{trace.iq};
  // Schemes with their own synchronization front end (LZn) must not take
  // shared Detector results — their detection path IS the thing measured.
  const bool own_sync = receiver.options().sync != nullptr;
  const auto decoded =
      detections != nullptr && !own_sync
          ? receiver.decode_with_detections(spans, *detections, rng, &r.stats)
          : receiver.decode_multi(spans, rng, &r.stats);
  r.eval = sim::evaluate(trace, decoded);
  return r;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s; TNB_BENCH_FULL=%d)\n", paper_ref,
              full_mode() ? 1 : 0);
  std::printf("==============================================================\n");
}

}  // namespace tnb::bench
