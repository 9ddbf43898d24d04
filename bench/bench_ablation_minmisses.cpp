// Ablation: partition-selection algorithm — exact DP vs greedy vs UCP-style
// lookahead — plus the fairness and QoS policies, all on the same M-L
// hardware substrate.
#include <cstdio>
#include <fstream>
#include <optional>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "plrupart/core/fair.hpp"
#include "plrupart/core/ipc_policy.hpp"
#include "plrupart/core/qos.hpp"
#include "plrupart/core/static_policy.hpp"

using namespace plrupart;
using namespace plrupart::bench;

namespace {

/// The IPC-objective DP over one timing model per core of `w`.
core::IntervalController::DecideFn ipc_decide(const workloads::Workload& w,
                                              core::IpcObjective objective) {
  std::vector<core::IpcModel> models;
  for (const auto& bench_name : w.benchmarks) {
    const auto& prof = workloads::benchmark(bench_name);
    // Rough per-benchmark timing personality; the L1 filter passes
    // ~20-50% of memory ops at these working sets, estimate 30%.
    models.push_back(core::IpcModel{
        .instr_per_l2_access = 1.0 / (prof.mem_fraction * 0.3),
        .base_ipc = prof.core.base_ipc,
        .l2_hit_penalty = prof.core.l2_hit_penalty,
        .mem_penalty = prof.core.mem_penalty,
        .stall_fraction = prof.core.stall_fraction});
  }
  return [models, objective](const std::vector<core::MissCurve>& curves,
                             std::uint32_t ways) {
    return core::ipc_partition(curves, ways, models, objective);
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto opt = RunOptions::from_cli(cli);
  const bool quick = cli.has("--quick");

  struct PolicySpec {
    std::string name;
    core::IntervalController::DecideFn decide;  ///< empty: the IPC DP
    core::IpcObjective objective = core::IpcObjective::kThroughput;
  };
  const std::vector<PolicySpec> policies{
      {"optimal", core::min_misses_optimal},
      {"greedy", core::min_misses_greedy},
      {"lookahead", core::min_misses_lookahead},
      {"fair", core::fair_partition},
      {"qos(core0,1.1x)",
       [](const std::vector<core::MissCurve>& curves, std::uint32_t ways) {
         return core::qos_partition(curves, ways, {.core = 0, .factor = 1.1});
       }},
      {"ipc-throughput", nullptr, core::IpcObjective::kThroughput},
      {"ipc-hmean", nullptr, core::IpcObjective::kHarmonicMean},
      {"static-even",
       [](const std::vector<core::MissCurve>& curves, std::uint32_t ways) {
         return core::even_split(static_cast<std::uint32_t>(curves.size()), ways);
       }},
  };
  const std::vector<std::uint32_t> core_counts =
      quick ? std::vector<std::uint32_t>{2} : std::vector<std::uint32_t>{2, 4};

  std::printf("=== Ablation: partition-selection policy (M-L substrate) ===\n");
  std::printf("(geomean throughput and harmonic mean relative to MinMisses-optimal)\n\n");

  std::optional<std::ofstream> csv_file;
  std::optional<CsvWriter> csv;
  if (const auto path = cli.value("--csv")) {
    csv_file.emplace(*path);
    csv.emplace(*csv_file, std::vector<std::string>{"cores", "policy", "rel_throughput",
                                                    "rel_hmean"});
  }

  IsolationCache iso(opt);
  std::printf("%-7s %-17s %16s %12s\n", "cores", "policy", "rel.throughput",
              "rel.hmean");
  for (const auto cores : core_counts) {
    auto ws = maybe_quick(workloads::workloads_for_threads(cores), quick, 6);
    iso.warm(ws, {cache::ReplacementKind::kLru});

    std::vector<metrics::PerfMetrics> results(ws.size() * policies.size());
    parallel_for(results.size(), [&](std::size_t idx) {
      const auto& w = ws[idx / policies.size()];
      const auto& pol = policies[idx % policies.size()];
      const auto r = run_workload(w, "M-L", opt, [&](core::CpaConfig& cfg) {
        cfg.decide = pol.decide ? pol.decide : ipc_decide(w, pol.objective);
      });
      results[idx] = workload_metrics(r, cache::ReplacementKind::kLru, iso);
    });

    for (std::size_t p = 0; p < policies.size(); ++p) {
      GeoMean thr, hm;
      for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const auto& base = results[wi * policies.size() + 0];
        const auto& mine = results[wi * policies.size() + p];
        thr.add(mine.throughput / base.throughput);
        hm.add(mine.harmonic_mean / base.harmonic_mean);
      }
      std::printf("%-7u %-17s %16.4f %12.4f\n", cores, policies[p].name.c_str(),
                  thr.value(), hm.value());
      if (csv) csv->row_of(cores, policies[p].name, thr.value(), hm.value());
    }
  }

  std::printf("\nexpectation: greedy ~= optimal on mostly-convex curves; fair trades\n"
              "throughput for harmonic mean; static-even trails every dynamic policy.\n");
  return 0;
}
