// Figs. 12-14: throughput (decoded packets) vs offered load for the three
// deployments, SF 8 and SF 10, TnB vs CIC vs AlignTrack* vs LoRaPHY.
//
// Default mode runs CR 4 with a reduced load sweep and short traces; set
// TNB_BENCH_FULL=1 for all CR values, the full 5..25 pkt/s sweep and longer
// traces. Absolute counts differ from the paper (30 s USRP traces vs
// synthetic traces here), but the ordering and the growth of TnB's gain
// with SF are the reproduced shapes.
//
// Every (deployment, SF, CR, load, run) cell is independent: cells fan out
// across `--jobs N` (or TNB_JOBS) workers, results land in pre-sized slots,
// and the printed numbers are identical for every jobs value.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "cli.hpp"

using namespace tnb;

namespace {

struct Cell {
  std::size_t dep = 0;
  unsigned sf = 8;
  unsigned cr = 4;
  double load = 0.0;
  int run = 0;
};

struct CellResult {
  std::vector<double> decoded;  ///< per scheme
  std::size_t offered = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int jobs = common::default_jobs();
  const cli::Parser cli("bench_fig12_14_throughput", {cli::jobs(jobs)});
  if (const auto status = cli.run(argc, argv)) return *status;
  bench::print_header("Figs. 12-14: throughput vs offered load",
                      "paper Figs. 12, 13, 14");
  const std::vector<base::Scheme> schemes = {
      base::Scheme::kTnB,       base::Scheme::kCic,
      base::Scheme::kAlignTrack, base::Scheme::kLoRaPhy,
      base::Scheme::kCoRa,      base::Scheme::kCoRaTnB,
      base::Scheme::kLZnThrive};
  const std::vector<unsigned> crs =
      bench::full_mode() ? std::vector<unsigned>{1, 2, 3, 4}
                         : std::vector<unsigned>{4};
  const std::vector<sim::Deployment> deps = {sim::indoor_deployment(),
                                             sim::outdoor1_deployment(),
                                             sim::outdoor2_deployment()};
  // The paper averages 3 runs per point; full mode does the same.
  const int runs = bench::full_mode() ? 3 : 1;

  std::vector<Cell> cells;
  for (std::size_t d = 0; d < deps.size(); ++d) {
    for (unsigned sf : {8u, 10u}) {
      for (unsigned cr : crs) {
        for (double load : bench::load_sweep()) {
          for (int run = 0; run < runs; ++run) {
            cells.push_back({d, sf, cr, load, run});
          }
        }
      }
    }
  }

  std::vector<CellResult> results(cells.size());
  bench::ObsScope obs;  // receivers below record stage timings into it
  const tnb::obs::HistogramRef cell_seconds = obs.cell_seconds();
  const bench::WallTimer total;
  common::parallel_for(cells.size(), jobs, [&](std::size_t i) {
    const Cell& c = cells[i];
    const bench::WallTimer timer;
    const lora::Params p{
        .sf = c.sf, .cr = c.cr, .bandwidth_hz = 125e3, .osf = 8};
    const sim::Trace trace = bench::make_deployment_trace(
        p, deps[c.dep], c.load,
        1000 + c.sf * 10 + c.cr + 7777u * static_cast<unsigned>(c.run));
    const auto detections = bench::detect_once(p, trace);
    CellResult& r = results[i];
    r.offered = trace.packets.size();
    r.decoded.resize(schemes.size(), 0.0);
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      r.decoded[si] = static_cast<double>(
          bench::run_scheme(schemes[si], p, trace, false, &detections)
              .eval.decoded_unique);
    }
    cell_seconds.observe(timer.seconds());
  });
  const double wall = total.seconds();

  double tnb_total = 0.0, cic_total = 0.0;
  double tnb_total_sf10 = 0.0, cic_total_sf10 = 0.0;
  std::size_t next = 0;
  for (std::size_t d = 0; d < deps.size(); ++d) {
    for (unsigned sf : {8u, 10u}) {
      for (unsigned cr : crs) {
        std::printf("\n%s, SF %u, CR %u (decoded packets per %.0f s trace):\n",
                    deps[d].name.c_str(), sf, cr, bench::trace_duration());
        std::printf("%-8s", "load");
        for (base::Scheme s : schemes) {
          std::printf("%14s", base::scheme_name(s).c_str());
        }
        std::printf("%10s\n", "offered");
        for (double load : bench::load_sweep()) {
          std::vector<double> decoded(schemes.size(), 0.0);
          std::size_t offered = 0;
          for (int run = 0; run < runs; ++run) {
            const CellResult& r = results[next++];
            offered += r.offered;
            for (std::size_t si = 0; si < schemes.size(); ++si) {
              decoded[si] += r.decoded[si];
            }
          }
          std::printf("%-8.0f", load);
          for (std::size_t si = 0; si < schemes.size(); ++si) {
            decoded[si] /= runs;
            std::printf("%14.1f", decoded[si]);
            if (load == bench::load_sweep().back()) {
              if (schemes[si] == base::Scheme::kTnB) {
                tnb_total += decoded[si];
                if (sf == 10) tnb_total_sf10 += decoded[si];
              }
              if (schemes[si] == base::Scheme::kCic) {
                cic_total += decoded[si];
                if (sf == 10) cic_total_sf10 += decoded[si];
              }
            }
          }
          std::printf("%10zu\n", offered / static_cast<std::size_t>(runs));
        }
      }
    }
  }
  std::printf("\nAggregate TnB/CIC throughput ratio at the highest load: "
              "%.2fx overall, %.2fx for SF 10\n",
              cic_total > 0 ? tnb_total / cic_total : 0.0,
              cic_total_sf10 > 0 ? tnb_total_sf10 / cic_total_sf10 : 0.0);
  std::printf("(paper: median gains 1.36x at SF 8 and 2.46x at SF 10)\n");
  bench::print_obs_summary(obs.registry().snapshot(), cells.size(), jobs, wall);
  return 0;
}
