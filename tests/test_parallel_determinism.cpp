// Parallel-execution determinism: independent (scenario, run) cells fanned
// out over common::parallel_for, as tnb_eval and the parallel benches do,
// must produce bit-identical results for every jobs value — each cell's
// trace seed depends only on its index and each result lands in a
// pre-sized slot, so worker scheduling can never reorder or perturb the
// output.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "baselines/factories.hpp"
#include "common/thread_pool.hpp"
#include "core/receiver.hpp"
#include "sim/deployment.hpp"
#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"

namespace tnb {
namespace {

/// One experiment point: a deployment driven at a load for one second.
struct Point {
  lora::Params params;
  sim::Deployment deployment;
  double load_pps;

  sim::Trace trace(std::uint64_t seed) const {
    Rng rng(seed);
    sim::TraceOptions opt;
    opt.duration_s = 1.0;
    opt.load_pps = load_pps;
    opt.nodes = deployment.draw_nodes(rng);
    return sim::build_trace(params, opt, rng);
  }
};

Point light_point() {
  sim::Deployment dep = sim::indoor_deployment();
  dep.n_nodes = 3;
  return {{.sf = 7, .cr = 4, .bandwidth_hz = 125e3, .osf = 2}, dep, 4.0};
}

Point heavy_point() {
  sim::Deployment dep = sim::outdoor1_deployment();
  dep.n_nodes = 4;
  return {{.sf = 8, .cr = 2, .bandwidth_hz = 125e3, .osf = 2}, dep, 6.0};
}

/// cell(i) for i in [0, n) on `jobs` workers, each into its own slot.
std::vector<double> fan_out(std::size_t n, int jobs,
                            const std::function<double(std::size_t)>& cell) {
  std::vector<double> out(n);
  common::parallel_for(n, jobs, [&](std::size_t i) { out[i] = cell(i); });
  return out;
}

/// Full receive pipeline of one scheme, seeded only by the run index.
double decode_score(base::Scheme scheme, const sim::Trace& t,
                    std::size_t run) {
  const rx::Receiver receiver = base::make_receiver(scheme, t.params);
  Rng rng(1000 + run);
  const auto decoded = receiver.decode(t.iq, rng);
  return static_cast<double>(sim::evaluate(t, decoded).decoded_unique) +
         1e-7 * static_cast<double>(t.packets.size());
}

/// Cheap pure score exercising trace structure only.
double trace_score(const sim::Trace& t) {
  double s = static_cast<double>(t.packets.size());
  for (const auto& p : t.packets) {
    s += 1e-9 * static_cast<double>(p.start_sample);
  }
  return s;
}

TEST(ParallelDeterminism, RunRepeatedMatchesSequential) {
  for (const Point& point : {light_point(), heavy_point()}) {
    for (std::uint64_t seed : {42ull, 1234567ull}) {
      const auto run = [&](std::size_t r) {
        return decode_score(base::Scheme::kTnB, point.trace(seed + r), r);
      };
      EXPECT_EQ(fan_out(6, 8, run), fan_out(6, 1, run));  // bit-exact
    }
  }
}

TEST(ParallelDeterminism, BaselineSchemesMatchSequential) {
  // CoRa's amplitude decision and the CoRa->TnB hybrid (plus LZn's custom
  // sync front end) must be bit-identical for any jobs value, like every
  // other scheme.
  for (const base::Scheme scheme :
       {base::Scheme::kCoRa, base::Scheme::kCoRaTnB,
        base::Scheme::kLZnThrive}) {
    const auto run = [&](std::size_t r) {
      return decode_score(scheme, light_point().trace(42 + r), r);
    };
    EXPECT_EQ(fan_out(4, 8, run), fan_out(4, 1, run))
        << base::scheme_name(scheme) << " not jobs-deterministic";
  }
}

TEST(ParallelDeterminism, RunGridMatchesSequentialAcrossScenarios) {
  // One task per (point, run) cell, as the benches fan out their grids.
  const std::vector<Point> grid = {light_point(), heavy_point()};
  constexpr std::size_t kRuns = 5;
  for (std::uint64_t seed : {42ull, 99ull}) {
    const auto cell = [&](std::size_t i) {
      const std::size_t point = i / kRuns;
      return trace_score(grid[point].trace(seed + i)) + 1000.0 * point;
    };
    EXPECT_EQ(fan_out(grid.size() * kRuns, 8, cell),
              fan_out(grid.size() * kRuns, 1, cell));
  }
}

}  // namespace
}  // namespace tnb
