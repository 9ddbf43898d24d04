// policy_explorer: compare every replacement policy on a configurable
// workload, partitioned and unpartitioned, across cache sizes.
//
//   $ policy_explorer [--benchmarks twolf,art] [--sizes 512,1024,2048]
//                     [--instr 1000000] [--partitioned]
//
// Useful for answering "which replacement policy should my cache use, and
// does partitioning change the answer?" for a given workload mix.
#include <cstdio>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"

using namespace plrupart;

namespace {

double run_mix(const std::vector<std::string>& names, const std::string& acronym,
               std::uint64_t l2_kb, std::uint64_t instr) {
  sim::SimConfig cfg;
  cfg.hierarchy.l1d =
      cache::Geometry{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128};
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
      acronym, static_cast<std::uint32_t>(names.size()),
      cache::Geometry{.size_bytes = l2_kb * 1024, .associativity = 16,
                      .line_bytes = 128});
  cfg.instr_limit = instr;
  cfg.warmup_instr = instr / 2;
  std::vector<std::unique_ptr<sim::TraceSource>> traces;
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    const auto& prof = workloads::benchmark(names[i]);
    cfg.cores.push_back(prof.core);
    traces.push_back(workloads::make_trace(prof, i, 21));
  }
  sim::CmpSimulator sim(std::move(cfg), std::move(traces));
  return sim.run().throughput();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto names = split_list(cli.get_string("--benchmarks", "twolf,art"));
  const auto instr = static_cast<std::uint64_t>(cli.get_int("--instr", 1'000'000));
  std::vector<std::uint64_t> sizes;
  for (const auto& s : split_list(cli.get_string("--sizes", "512,1024,2048")))
    sizes.push_back(std::stoull(s));

  const std::vector<std::pair<std::string, std::string>> rows{
      {"LRU, unpartitioned", "NOPART-L"},
      {"NRU, unpartitioned", "NOPART-N"},
      {"BT,  unpartitioned", "NOPART-BT"},
      {"LRU + MinMisses (C-L)", "C-L"},
      {"LRU + MinMisses (M-L)", "M-L"},
      {"NRU + MinMisses (M-0.75N)", "M-0.75N"},
      {"BT  + MinMisses (M-BT)", "M-BT"},
  };

  std::printf("workload:");
  for (const auto& n : names) std::printf(" %s", n.c_str());
  std::printf("   (%llu measured instructions/thread)\n\n",
              static_cast<unsigned long long>(instr));

  std::printf("%-28s", "configuration");
  for (const auto kb : sizes)
    std::printf(" %9lluKB", static_cast<unsigned long long>(kb));
  std::printf("   <- total IPC throughput\n");

  // All (row, size) cells run in parallel.
  std::vector<double> cells(rows.size() * sizes.size());
  parallel_for(cells.size(), [&](std::size_t idx) {
    const auto& acr = rows[idx / sizes.size()].second;
    const auto kb = sizes[idx % sizes.size()];
    cells[idx] = run_mix(names, acr, kb, instr);
  });

  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::printf("%-28s", rows[r].first.c_str());
    for (std::size_t si = 0; si < sizes.size(); ++si)
      std::printf(" %11.3f", cells[r * sizes.size() + si]);
    std::printf("\n");
    if (r == 2) std::printf("%-28s\n", "---");
  }

  std::printf("\nreading guide: compare within a column; the gap between the top\n"
              "block (no partitioning) and the bottom block is what the dynamic\n"
              "CPA buys for this mix at each cache size.\n");
  return 0;
}
