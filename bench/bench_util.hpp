// Shared harness for the table/figure reproduction benches.
//
// Scale note: the paper simulates 100M instructions per thread on a
// cycle-accurate simulator; these benches default to 2M instructions per
// thread, the first 1M of them warm-up, with a proportionally shortened
// repartition interval (200k cycles vs the paper's 1M on 50x longer runs).
// Every binary accepts
//   --instr N       instructions per thread
//   --interval N    repartition interval in cycles
//   --seed N        RNG root seed
//   --quick         a reduced workload subset for smoke runs
//   --csv FILE      machine-readable copy of the printed table
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "plrupart/metrics/metrics.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/workload_table.hpp"

namespace plrupart::bench {

struct RunOptions {
  std::uint64_t instr = 2'000'000;
  std::uint64_t warmup = 1'000'000;
  std::uint64_t interval_cycles = 200'000;
  std::uint32_t sampling_ratio = 32;
  std::uint64_t seed = 42;
  cache::Geometry l2 = cache::paper_l2_geometry();
  cache::Geometry l1d{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128};

  [[nodiscard]] static RunOptions from_cli(const Cli& cli) {
    RunOptions o;
    o.instr = static_cast<std::uint64_t>(cli.get_int("--instr", 2'000'000));
    o.warmup = static_cast<std::uint64_t>(
        cli.get_int("--warmup", static_cast<std::int64_t>(o.instr / 2)));
    o.interval_cycles = static_cast<std::uint64_t>(cli.get_int("--interval", 200'000));
    o.seed = static_cast<std::uint64_t>(cli.get_int("--seed", 42));
    return o;
  }
};

/// Bridge RunOptions into the sweep engine: a configs × workloads × L2-size
/// RunMatrix sharing this harness's simulation parameters. The figure benches
/// build their sweeps through this (canonical order: workload > config > size;
/// use RunMatrix::index_of to address results) instead of private loops.
///
/// Seed note: the engine derives one trace seed per workload row, so every
/// config/size cell of a workload replays identical access streams, while the
/// IsolationCache baselines below keep using the root seed — baselines stay
/// common to all configurations, which is what the relative metrics need.
[[nodiscard]] inline runner::RunMatrix matrix_for(const RunOptions& opt,
                                                  std::vector<std::string> configs,
                                                  std::vector<workloads::Workload> ws,
                                                  std::vector<std::uint64_t> l2_kb = {}) {
  runner::RunMatrix m;
  m.configs = std::move(configs);
  m.workloads = std::move(ws);
  m.l2_kb = l2_kb.empty() ? std::vector<std::uint64_t>{opt.l2.size_bytes / 1024}
                          : std::move(l2_kb);
  m.assoc = opt.l2.associativity;
  m.line = opt.l2.line_bytes;
  m.l1d = opt.l1d;
  m.instr = opt.instr;
  m.warmup = opt.warmup;
  m.interval_cycles = opt.interval_cycles;
  m.sampling_ratio = opt.sampling_ratio;
  m.seed = opt.seed;
  return m;
}

/// Expand + execute a matrix with the process-default thread count.
[[nodiscard]] inline std::vector<runner::JobResult> run_matrix(const runner::RunMatrix& m) {
  return runner::SweepExecutor{}.run(m.expand());
}

/// Run one Table II workload under one L2 configuration acronym.
inline sim::SimResult run_workload(
    const workloads::Workload& w, const std::string& acronym, const RunOptions& opt,
    const std::function<void(core::CpaConfig&)>& tweak = {}) {
  sim::SimConfig cfg;
  cfg.hierarchy.l1d = opt.l1d;
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(acronym, w.threads(), opt.l2);
  cfg.hierarchy.l2.interval_cycles = opt.interval_cycles;
  cfg.hierarchy.l2.sampling_ratio = opt.sampling_ratio;
  cfg.hierarchy.l2.seed = opt.seed;
  if (tweak) tweak(cfg.hierarchy.l2);
  cfg.instr_limit = opt.instr;
  cfg.warmup_instr = opt.warmup;
  std::vector<std::unique_ptr<sim::TraceSource>> traces;
  for (std::uint32_t i = 0; i < w.threads(); ++i) {
    const auto& prof = workloads::benchmark(w.benchmarks[i]);
    cfg.cores.push_back(prof.core);
    traces.push_back(workloads::make_trace(prof, i, opt.seed));
  }
  sim::CmpSimulator sim(std::move(cfg), std::move(traces));
  return sim.run();
}

/// Memoized isolation IPCs: each benchmark alone on the full (unpartitioned)
/// L2 with the same replacement policy — the weighted-speedup baseline.
class IsolationCache {
 public:
  explicit IsolationCache(RunOptions opt) : opt_(std::move(opt)) {}

  double ipc(const std::string& benchmark_name, cache::ReplacementKind kind) {
    const Key key{benchmark_name, kind, opt_.l2.size_bytes};
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    const workloads::Workload solo{"ISO_" + benchmark_name, {benchmark_name}};
    const auto result = run_workload(
        solo,
        core::CpaConfig{.replacement = kind, .enforcement = cache::EnforcementMode::kNone}
            .acronym(),
        opt_);
    const double value = result.threads[0].ipc;
    const std::lock_guard<std::mutex> lock(mutex_);
    cache_.emplace(key, value);
    return value;
  }

  /// Precompute every (benchmark, kind) pair in parallel so later lookups are
  /// pure cache hits (avoids recomputation storms inside parallel sweeps).
  void warm(const std::vector<workloads::Workload>& workloads,
            const std::vector<cache::ReplacementKind>& kinds) {
    std::vector<std::pair<std::string, cache::ReplacementKind>> todo;
    for (const auto& w : workloads)
      for (const auto& b : w.benchmarks)
        for (const auto k : kinds) todo.emplace_back(b, k);
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    parallel_for(todo.size(), [&](std::size_t i) { (void)ipc(todo[i].first, todo[i].second); });
  }

 private:
  using Key = std::tuple<std::string, cache::ReplacementKind, std::uint64_t>;
  RunOptions opt_;
  std::mutex mutex_;
  std::map<Key, double> cache_;
};

/// The paper's three metrics for one finished run.
inline metrics::PerfMetrics workload_metrics(const sim::SimResult& result,
                                             cache::ReplacementKind kind,
                                             IsolationCache& iso) {
  std::vector<double> ipcs, iso_ipcs;
  for (const auto& t : result.threads) {
    ipcs.push_back(t.ipc);
    iso_ipcs.push_back(iso.ipc(t.benchmark, kind));
  }
  return metrics::compute(ipcs, iso_ipcs);
}

[[nodiscard]] inline cache::ReplacementKind replacement_of(const std::string& acronym) {
  return core::CpaConfig::from_acronym(acronym, 2, cache::paper_l2_geometry()).replacement;
}

/// Reduce a workload list for --quick smoke runs.
[[nodiscard]] inline std::vector<workloads::Workload> maybe_quick(
    std::vector<workloads::Workload> ws, bool quick, std::size_t keep = 4) {
  if (quick && ws.size() > keep) ws.resize(keep);
  return ws;
}

}  // namespace plrupart::bench
