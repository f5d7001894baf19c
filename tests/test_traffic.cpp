// Property tests for the sim traffic-model layer (deployment.hpp):
// duty-cycle budgets, ADR SF assignment, arrival-process statistics, and
// jobs-determinism of traffic-driven trace grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "lora/coding.hpp"
#include "sim/deployment.hpp"
#include "sim/trace_builder.hpp"

namespace {

using namespace tnb;

/// Index of dispersion (variance/mean) of per-bin arrival counts.
double index_of_dispersion(const std::vector<double>& times,
                           double duration_s, double bin_s) {
  const std::size_t n_bins =
      static_cast<std::size_t>(std::ceil(duration_s / bin_s));
  std::vector<double> counts(n_bins, 0.0);
  for (double t : times) {
    const auto b = static_cast<std::size_t>(t / bin_s);
    if (b < n_bins) counts[b] += 1.0;
  }
  double mean = 0.0;
  for (double c : counts) mean += c;
  mean /= static_cast<double>(n_bins);
  double var = 0.0;
  for (double c : counts) var += (c - mean) * (c - mean);
  var /= static_cast<double>(n_bins - 1);
  return mean > 0.0 ? var / mean : 0.0;
}

std::vector<double> arrival_times(const sim::TrafficDraw& draw) {
  std::vector<double> t;
  t.reserve(draw.arrivals.size());
  for (const sim::PacketArrival& a : draw.arrivals) t.push_back(a.start_s);
  return t;
}

sim::TrafficModel model(sim::Arrivals arrivals) {
  sim::TrafficModel tm;
  tm.arrivals = arrivals;
  return tm;
}

TEST(Traffic, ParseNamesRoundTrip) {
  EXPECT_EQ(sim::parse_traffic("poisson").arrivals, sim::Arrivals::kPoisson);
  EXPECT_EQ(sim::parse_traffic("bursty").arrivals, sim::Arrivals::kBursty);
  EXPECT_EQ(sim::parse_traffic("diurnal").arrivals, sim::Arrivals::kDiurnal);
  EXPECT_THROW(sim::parse_traffic("fractal"), std::invalid_argument);
  for (const char* name : {"poisson", "bursty", "diurnal"}) {
    EXPECT_STREQ(sim::arrivals_name(sim::parse_traffic(name).arrivals), name);
  }
}

TEST(Traffic, ValidateRejectsBadModels) {
  sim::TrafficModel tm;
  tm.duty_cycle = 1.5;
  EXPECT_THROW(tm.validate(), std::invalid_argument);
  tm = sim::TrafficModel{};
  tm.burst_factor = 0.5;
  EXPECT_THROW(tm.validate(), std::invalid_argument);
  tm = sim::TrafficModel{};
  tm.diurnal_depth = 1.0;
  EXPECT_THROW(tm.validate(), std::invalid_argument);
  tm = sim::TrafficModel{};
  tm.sf_weights = {{13u, 1.0}};
  EXPECT_THROW(tm.validate(), std::invalid_argument);
  tm = sim::TrafficModel{};
  tm.sf_weights = {{8u, 0.0}};
  EXPECT_THROW(tm.validate(), std::invalid_argument);  // weights sum to 0
  EXPECT_NO_THROW(sim::TrafficModel{}.validate());
}

// Poisson arrivals at rate lambda: mean count ~ lambda*T, index of
// dispersion ~ 1 (the defining property).
TEST(Traffic, PoissonMeanAndDispersion) {
  const double load = 20.0, duration = 200.0;
  Rng rng(1);
  const std::vector<unsigned> node_sf(4, 8u);
  const auto draw =
      sim::draw_arrivals(model(sim::Arrivals::kPoisson), load, duration,
                         node_sf, [](unsigned) { return 0.1; }, rng);
  const auto times = arrival_times(draw);
  EXPECT_NEAR(static_cast<double>(times.size()), load * duration,
              4.0 * std::sqrt(load * duration));
  const double id = index_of_dispersion(times, duration, 1.0);
  EXPECT_GT(id, 0.5);
  EXPECT_LT(id, 1.5);
  EXPECT_EQ(draw.duty_dropped, 0u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  for (const sim::PacketArrival& a : draw.arrivals) {
    EXPECT_GE(a.start_s, 0.0);
    EXPECT_LT(a.start_s, duration);
    EXPECT_LT(a.node, 4u);
    EXPECT_EQ(a.sf, 8u);
  }
}

// MMPP-2 bursty arrivals: same mean load, but clumped — the index of
// dispersion is pinned well above the Poisson value of 1.
TEST(Traffic, BurstyOverdispersedAtSameMeanLoad) {
  const double load = 20.0, duration = 200.0;
  Rng rng(2);
  const std::vector<unsigned> node_sf(2, 8u);
  const auto draw =
      sim::draw_arrivals(model(sim::Arrivals::kBursty), load, duration,
                         node_sf, [](unsigned) { return 0.1; }, rng);
  const auto times = arrival_times(draw);
  // Mean load is preserved (within 25% — MMPP variance is large).
  EXPECT_NEAR(static_cast<double>(times.size()), load * duration,
              0.25 * load * duration);
  const double id = index_of_dispersion(times, duration, 1.0);
  EXPECT_GT(id, 1.5) << "bursty arrivals are not overdispersed";
}

// Diurnal arrivals: cosine-shaped rate peaking at the period edges. With
// period == duration, the first and last quarters must carry well more
// traffic than the middle half.
TEST(Traffic, DiurnalShapeFollowsCosine)
{
  const double load = 20.0, duration = 400.0;
  sim::TrafficModel tm = model(sim::Arrivals::kDiurnal);
  tm.diurnal_depth = 0.8;
  Rng rng(3);
  const std::vector<unsigned> node_sf(2, 8u);
  const auto draw = sim::draw_arrivals(tm, load, duration, node_sf,
                                       [](unsigned) { return 0.1; }, rng);
  std::size_t edges = 0, middle = 0;
  for (const sim::PacketArrival& a : draw.arrivals) {
    const double frac = a.start_s / duration;
    if (frac < 0.25 || frac >= 0.75) ++edges;
    else ++middle;
  }
  ASSERT_GT(edges + middle, 1000u);
  EXPECT_GT(static_cast<double>(edges), 1.5 * static_cast<double>(middle));
}

// The duty-cycle budget is a hard cap: per node, the airtime of accepted
// arrivals never exceeds duty_cycle * duration, and everything over the
// budget is counted in duty_dropped.
TEST(Traffic, DutyCycleNeverExceeded) {
  const double load = 30.0, duration = 50.0, airtime = 0.12;
  for (double duty : {0.01, 0.05, 0.2}) {
    sim::TrafficModel tm = model(sim::Arrivals::kPoisson);
    tm.duty_cycle = duty;
    Rng rng(4);
    const std::vector<unsigned> node_sf(5, 8u);
    const auto draw = sim::draw_arrivals(
        tm, load, duration, node_sf, [=](unsigned) { return airtime; }, rng);
    std::map<unsigned, double> used;
    for (const sim::PacketArrival& a : draw.arrivals) {
      used[a.node] += airtime;
    }
    const double budget = duty * duration;
    for (const auto& [node, airtime_sum] : used) {
      EXPECT_LE(airtime_sum, budget + 1e-9) << "node " << node;
    }
    EXPECT_GT(draw.duty_dropped, 0u) << "duty=" << duty;
    // Dropped + accepted = offered.
    Rng rng2(4);
    tm.duty_cycle = 0.0;
    const auto all = sim::draw_arrivals(
        tm, load, duration, node_sf, [=](unsigned) { return airtime; }, rng2);
    EXPECT_EQ(draw.arrivals.size() + draw.duty_dropped, all.arrivals.size());
  }
}

// ADR SF assignment: the node histogram converges to the configured
// weights; an empty weight table assigns everyone the default SF without
// consuming randomness.
TEST(Traffic, AdrSfHistogramWithinTolerance) {
  sim::TrafficModel tm;
  tm.sf_weights = {{7u, 0.5}, {8u, 0.3}, {9u, 0.2}};
  const std::size_t n_nodes = 3000;
  Rng rng(5);
  const auto sfs = sim::draw_sf_assignment(tm, n_nodes, 8u, rng);
  ASSERT_EQ(sfs.size(), n_nodes);
  std::map<unsigned, double> hist;
  for (unsigned sf : sfs) hist[sf] += 1.0 / static_cast<double>(n_nodes);
  EXPECT_NEAR(hist[7u], 0.5, 0.03);
  EXPECT_NEAR(hist[8u], 0.3, 0.03);
  EXPECT_NEAR(hist[9u], 0.2, 0.03);
  EXPECT_EQ(hist.size(), 3u);

  Rng a(6), b(6);
  const auto defaults = sim::draw_sf_assignment(sim::TrafficModel{}, 100, 9u, a);
  EXPECT_TRUE(std::all_of(defaults.begin(), defaults.end(),
                          [](unsigned sf) { return sf == 9u; }));
  EXPECT_EQ(a.uniform(), b.uniform());  // no draws consumed
}

// Weights don't need to be normalized: {1, 3} behaves as {0.25, 0.75}.
TEST(Traffic, SfWeightsUnnormalized) {
  sim::TrafficModel tm;
  tm.sf_weights = {{7u, 1.0}, {10u, 3.0}};
  Rng rng(7);
  const auto sfs = sim::draw_sf_assignment(tm, 4000, 8u, rng);
  const double frac7 =
      static_cast<double>(std::count(sfs.begin(), sfs.end(), 7u)) / 4000.0;
  EXPECT_NEAR(frac7, 0.25, 0.03);
}

// Traffic-driven build_trace: ground truth carries only same-SF packets,
// foreign-SF arrivals are synthesized (longer airtime at higher SF, so
// the waveform energy rises) but never serialized.
TEST(Traffic, ForeignSfExcludedFromGroundTruth) {
  const lora::Params params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3,
                            .osf = 2};
  sim::TraceOptions opt;
  opt.duration_s = 2.0;
  opt.load_pps = 10.0;
  opt.nodes.resize(6);
  for (std::size_t i = 0; i < opt.nodes.size(); ++i) {
    opt.nodes[i].id = static_cast<std::uint16_t>(i + 1);
    opt.nodes[i].snr_db = 12.0;
  }
  sim::TrafficModel tm;
  tm.sf_weights = {{8u, 0.5}, {10u, 0.5}};
  opt.traffic = tm;
  Rng rng(8);
  const sim::Trace trace = sim::build_trace(params, opt, rng);
  EXPECT_GT(trace.n_foreign, 0u);
  EXPECT_GT(trace.packets.size(), 0u);
  for (const sim::TxPacketRecord& rec : trace.packets) {
    // Same-SF records only: their symbol counts match params at SF 8.
    EXPECT_EQ(rec.n_data_symbols,
              lora::frame_symbols(lora::Coding::kPaper, params,
                                  opt.app_payload_bytes));
  }
}

// The jobs-determinism contract extends to traffic + impairments: a grid
// of traffic-model traces (3 models x 3 runs) fanned out over
// common::parallel_for into pre-sized slots is bit-identical for jobs 1
// and jobs 8.
TEST(Traffic, GridDeterministicAcrossJobs) {
  static constexpr const char* kModels[] = {"poisson", "bursty", "diurnal"};
  const lora::Params params{.sf = 7, .cr = 4, .bandwidth_hz = 125e3,
                            .osf = 2};
  const auto cell = [&](std::size_t i) {
    Rng rng(99 + i);
    sim::Deployment dep = sim::indoor_deployment();
    dep.n_nodes = 4;
    sim::TraceOptions opt;
    opt.duration_s = 1.0;
    opt.load_pps = 6.0;
    opt.nodes = dep.draw_nodes(rng);
    opt.traffic = sim::parse_traffic(kModels[i / 3]);
    opt.impairments.push_back(impair::parse_impairment("quantize,bits=12"));
    const sim::Trace t = sim::build_trace(params, opt, rng);
    double sum = 0.0;
    for (const cfloat& v : t.iq) sum += std::norm(v);
    return sum + static_cast<double>(t.packets.size()) +
           static_cast<double>(t.n_foreign);
  };
  const auto run = [&](int jobs) {
    std::vector<double> out(3 * std::size(kModels));
    common::parallel_for(out.size(), jobs,
                         [&](std::size_t i) { out[i] = cell(i); });
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

}  // namespace
