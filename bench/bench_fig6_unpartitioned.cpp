// Figure 6 reproduction: performance of NRU and BT relative to LRU on a
// NON-partitioned shared L2, for 1-, 2-, 4- and 8-core CMPs.
//
// Paper reference points (100M-instruction traces): NRU loses at most 2.1%
// throughput at any core count; BT loses 2.2/1.6/1.9/5.3% at 1/2/4/8 cores.
// The sub-figures (a,b,c) are throughput, harmonic mean and weighted speedup.
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

  const std::vector<std::uint32_t> core_counts = quick
                                                     ? std::vector<std::uint32_t>{1, 2}
                                                     : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::vector<std::string> configs{"NOPART-L", "NOPART-N", "NOPART-BT"};

  std::printf("=== Figure 6: NRU and BT vs LRU, non-partitioned %lluKB %u-way L2 ===\n",
              static_cast<unsigned long long>(opt.l2.size_bytes / 1024),
              opt.l2.associativity);
  std::printf("(geometric means over Table II workloads; values relative to LRU;\n"
              " %llu instr/thread — scale notes in bench/bench_util.hpp)\n\n",
              static_cast<unsigned long long>(opt.instr));

  std::optional<std::ofstream> csv_file;
  std::optional<CsvWriter> csv;
  if (const auto path = cli.value("--csv")) {
    csv_file.emplace(*path);
    csv.emplace(*csv_file, std::vector<std::string>{"cores", "config", "rel_throughput",
                                                    "rel_hmean", "rel_wspeedup"});
  }

  std::printf("%-7s %-11s %14s %14s %16s\n", "cores", "config", "rel.throughput",
              "rel.hmean", "rel.wspeedup");

  IsolationCache iso(opt);

  for (const auto cores : core_counts) {
    auto ws = maybe_quick(workloads::workloads_for_threads(cores), quick);
    iso.warm(ws, {cache::ReplacementKind::kLru, cache::ReplacementKind::kNru,
                  cache::ReplacementKind::kTreePlru});

    // One workloads × configs RunMatrix per core count; baseline metrics per
    // workload come from the NOPART-L runs.
    const auto matrix = matrix_for(opt, configs, ws);
    const auto runs = run_matrix(matrix);
    std::vector<metrics::PerfMetrics> results(runs.size());
    for (std::size_t wi = 0; wi < ws.size(); ++wi)
      for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        const auto idx = matrix.index_of(wi, ci);
        results[idx] = workload_metrics(runs[idx].result, replacement_of(configs[ci]), iso);
      }

    // Paper-style aggregation: average each absolute metric over the workload
    // set per configuration, then report relative to LRU's average.
    for (std::size_t cfg_idx = 0; cfg_idx < configs.size(); ++cfg_idx) {
      metrics::PerfMetrics mine{}, base{};
      for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const auto& b = results[wi * configs.size() + 0];
        const auto& m = results[wi * configs.size() + cfg_idx];
        base.throughput += b.throughput;
        base.harmonic_mean += b.harmonic_mean;
        base.weighted_speedup += b.weighted_speedup;
        mine.throughput += m.throughput;
        mine.harmonic_mean += m.harmonic_mean;
        mine.weighted_speedup += m.weighted_speedup;
      }
      const double thr = mine.throughput / base.throughput;
      const double ht = cores > 1 ? mine.harmonic_mean / base.harmonic_mean : 1.0;
      const double wt = cores > 1 ? mine.weighted_speedup / base.weighted_speedup : 1.0;
      std::printf("%-7u %-11s %14.4f %14.4f %16.4f\n", cores, configs[cfg_idx].c_str(),
                  thr, ht, wt);
      if (csv) csv->row_of(cores, configs[cfg_idx], thr, ht, wt);
    }
  }

  std::printf("\npaper: NRU <= 2.1%% throughput loss at any core count;\n"
              "       BT loses 2.2/1.6/1.9/5.3%% at 1/2/4/8 cores.\n");
  return 0;
}
