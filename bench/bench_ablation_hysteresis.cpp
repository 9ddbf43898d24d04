// Ablation: repartition hysteresis (an implementation lever this repo adds on
// top of the paper's controller — see IntervalController in
// plrupart/core/controller.hpp).
//
// Mask-based enforcement pays a working-set rebuild every time the partition
// moves, so oscillating MinMisses decisions are costly; quota-based
// enforcement barely notices. The sweep shows how much damping the mask
// scheme needs and confirms the quota scheme is insensitive.
#include <cstdio>
#include <fstream>
#include <optional>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"

using namespace plrupart;
using namespace plrupart::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto opt = RunOptions::from_cli(cli);
  const bool quick = cli.has("--quick");

  const std::vector<double> levels{0.0, 0.02, 0.05, 0.10, 0.20, 0.40};
  const std::vector<std::string> configs{"M-L", "C-L"};
  const auto ws = maybe_quick(workloads::workloads_2t(), quick, 6);

  std::printf("=== Ablation: repartition hysteresis (2-core, MinMisses) ===\n");
  std::printf("(absolute mean throughput per hysteresis level)\n\n");

  std::optional<std::ofstream> csv_file;
  std::optional<CsvWriter> csv;
  if (const auto path = cli.value("--csv")) {
    csv_file.emplace(*path);
    csv.emplace(*csv_file, std::vector<std::string>{"config", "hysteresis",
                                                    "mean_throughput", "repartitions"});
  }

  std::printf("%-8s %12s %18s %16s\n", "config", "hysteresis", "mean throughput",
              "avg repartitions");
  for (const auto& config : configs) {
    for (const double h : levels) {
      std::vector<double> thr(ws.size());
      std::vector<double> reps(ws.size());
      parallel_for(ws.size(), [&](std::size_t wi) {
        const auto r = run_workload(ws[wi], config, opt, [&](core::CpaConfig& cfg) {
          cfg.repartition_hysteresis = h;
        });
        thr[wi] = r.throughput();
        // Count distinct partition switches, not interval firings.
        reps[wi] = static_cast<double>(r.repartitions);
      });
      double mean = 0.0, mean_reps = 0.0;
      for (std::size_t i = 0; i < ws.size(); ++i) {
        mean += thr[i];
        mean_reps += reps[i];
      }
      mean /= static_cast<double>(ws.size());
      mean_reps /= static_cast<double>(ws.size());
      std::printf("%-8s %12.2f %18.4f %16.1f\n", config.c_str(), h, mean, mean_reps);
      if (csv) csv->row_of(config, h, mean, mean_reps);
    }
  }

  std::printf("\nexpectation: M-L gains from moderate damping; C-L is largely flat.\n");
  return 0;
}
