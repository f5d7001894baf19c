// Extension figure: PRR vs impairment severity and traffic model, all
// schemes. Not a paper figure — the paper evaluates on clean synthesized
// traces; this sweep quantifies how much margin each scheme keeps under
// the tnb::impair hardware models (phase noise, IQ imbalance, ADC
// quantization, sample-clock drift, inter-SF interference, Doppler) and
// under the tnb::sim traffic models (Poisson, bursty MMPP, diurnal, duty
// cycle, ADR SF mix).
//
// One trace per (impairment, severity) cell, then (cell x scheme) decode
// cells fan out over --jobs with results in pre-sized slots: identical
// output for every jobs value. TNB_BENCH_FULL=1 adds the middle severity
// step of each sweep.
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cli.hpp"
#include "impair/impairment.hpp"

using namespace tnb;

namespace {

struct Cell {
  std::string label;  ///< first column of the printed row
  std::vector<impair::ImpairmentConfig> impairments;
  std::optional<sim::TrafficModel> traffic;
  sim::Trace trace;
};

}  // namespace

int main(int argc, char** argv) {
  int jobs = common::default_jobs();
  const cli::Parser cli("bench_fig_impairments", {cli::jobs(jobs)});
  if (const auto status = cli.run(argc, argv)) return *status;
  bench::print_header(
      "Impairments & traffic: PRR vs severity, all schemes",
      "extension (DESIGN.md section 15); not a paper figure");
  const bool full = bench::full_mode();
  const double load = 10.0;
  const std::vector<base::Scheme> schemes = base::all_schemes();
  const lora::Params params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3,
                            .osf = 8};

  std::vector<Cell> cells;
  auto add = [&](std::string label, const char* spec_csv) {
    Cell c;
    c.label = std::move(label);
    if (spec_csv != nullptr && spec_csv[0] != '\0') {
      c.impairments.push_back(impair::parse_impairment(spec_csv));
    }
    cells.push_back(std::move(c));
  };
  auto add_traffic = [&](std::string label, sim::TrafficModel tm) {
    Cell c;
    c.label = std::move(label);
    c.traffic = std::move(tm);
    cells.push_back(std::move(c));
  };

  // Severity ladders, mild -> severe; TNB_BENCH_FULL=1 adds the middle
  // step. Every impair::Kind appears at least twice.
  add("unimpaired", "");
  add("phase_noise lw=100Hz", "phase_noise,linewidth_hz=100");
  if (full) add("phase_noise lw=1kHz", "phase_noise,linewidth_hz=1000");
  add("phase_noise lw=10kHz", "phase_noise,linewidth_hz=10000");
  add("iq gain=0.5dB ph=2deg", "iq_imbalance,gain_db=0.5,phase_deg=2");
  if (full) add("iq gain=1dB ph=5deg", "iq_imbalance,gain_db=1,phase_deg=5");
  add("iq gain=3dB ph=15deg", "iq_imbalance,gain_db=3,phase_deg=15");
  add("quantize bits=12", "quantize,bits=12");
  if (full) add("quantize bits=8", "quantize,bits=8");
  add("quantize bits=6", "quantize,bits=6");
  add("clock_drift 10ppm", "clock_drift,ppm=10");
  if (full) add("clock_drift 50ppm", "clock_drift,ppm=50");
  add("clock_drift 200ppm", "clock_drift,ppm=200");
  add("inter_sf sf=10 2pps", "inter_sf,sf=10,pps=2");
  if (full) add("inter_sf sf=10 5pps", "inter_sf,sf=10,pps=5");
  add("inter_sf sf=10 10pps", "inter_sf,sf=10,pps=10");
  add("doppler 100Hz", "doppler,hz=100");
  if (full) add("doppler 500Hz", "doppler,hz=500");
  add("doppler 2kHz", "doppler,hz=2000");

  // Traffic models at the same mean load as the even-split baseline.
  add_traffic("traffic poisson", sim::parse_traffic("poisson"));
  add_traffic("traffic bursty", sim::parse_traffic("bursty"));
  add_traffic("traffic diurnal", sim::parse_traffic("diurnal"));
  {
    sim::TrafficModel duty = sim::parse_traffic("poisson");
    duty.duty_cycle = 0.1;  // ~2 packet airtimes per node on a short trace
    add_traffic("traffic duty=10%", duty);
    sim::TrafficModel adr = sim::parse_traffic("poisson");
    adr.sf_weights = {{8u, 0.7}, {10u, 0.3}};
    add_traffic("traffic sf 8:.7,10:.3", adr);
  }

  // Phase 1: one trace per cell. Each cell seeds its own Rng, so the
  // traces are identical for every jobs value.
  const sim::Deployment dep = sim::indoor_deployment();
  common::parallel_for(cells.size(), jobs, [&](std::size_t c) {
    Rng rng(4200 + c);
    sim::TraceOptions opt;
    opt.duration_s = bench::trace_duration();
    opt.load_pps = load;
    opt.nodes = dep.draw_nodes(rng);
    opt.impairments = cells[c].impairments;
    opt.traffic = cells[c].traffic;
    cells[c].trace = sim::build_trace(params, opt, rng);
  });

  // Phase 2: flat (cell, scheme) grid.
  bench::ObsScope obs;
  auto cell_hist = obs.cell_seconds();
  std::vector<std::vector<bench::SchemeResult>> results(
      cells.size(), std::vector<bench::SchemeResult>(schemes.size()));
  bench::WallTimer wt;
  common::parallel_for(cells.size() * schemes.size(), jobs,
                       [&](std::size_t k) {
                         const std::size_t c = k / schemes.size();
                         const std::size_t s = k % schemes.size();
                         bench::WallTimer cell_t;
                         results[c][s] = bench::run_scheme(
                             schemes[s], params, cells[c].trace);
                         cell_hist.observe(cell_t.seconds());
                       });

  std::printf("\nSF %u, load %.0f pkt/s, %.0f s traces\n%-24s", params.sf,
              load, bench::trace_duration(), "condition");
  for (const base::Scheme s : schemes) {
    std::printf(" %-12s", base::scheme_name(s).c_str());
  }
  std::printf("\n");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::printf("%-24s", cells[c].label.c_str());
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      std::printf(" %-12.2f", results[c][s].eval.prr);
    }
    if (cells[c].trace.n_foreign > 0 || cells[c].trace.duty_dropped > 0) {
      std::printf(" (foreign_sf=%zu duty_dropped=%zu)",
                  cells[c].trace.n_foreign, cells[c].trace.duty_dropped);
    }
    std::printf("\n");
  }
  std::printf("\n(expected: PRR falls along the phase_noise and clock_drift "
              "ladders; IQ\n imbalance and slow Doppler are nearly free "
              "(dechirp + CFO tracking absorb\n them); bursty traffic sits "
              "below poisson at equal mean load)\n");
  bench::print_obs_summary(obs.registry().snapshot(),
                           cells.size() * schemes.size(), jobs, wt.seconds());
  return 0;
}
