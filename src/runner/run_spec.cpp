#include "plrupart/runner/run_spec.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "plrupart/common/assert.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/common/rng.hpp"
#include "plrupart/core/partitioned_cache.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/trace_workload.hpp"

namespace plrupart::runner {

std::string RunSpec::key() const {
  return workload.id + "|" + config + "|" + std::to_string(l2.size_bytes / 1024);
}

sim::SimResult execute(const RunSpec& spec) {
  sim::SimConfig cfg;
  cfg.hierarchy.l1d = spec.l1d;
  cfg.hierarchy.l2 =
      core::CpaConfig::from_acronym(spec.config, spec.workload.threads(), spec.l2);
  cfg.hierarchy.l2.interval_cycles = spec.interval_cycles;
  cfg.hierarchy.l2.sampling_ratio = spec.sampling_ratio;
  cfg.hierarchy.l2.seed = spec.seed;
  cfg.instr_limit = spec.instr;
  cfg.warmup_instr = spec.warmup;
  cfg.sim_threads = spec.sim_threads;
  cfg.timing_mode = spec.timing;

  // Trace-backed workloads stream their recorded file per core (the seed
  // still feeds the L2's RNG); synthetic ones generate seeded streams.
  std::vector<std::unique_ptr<sim::TraceSource>> traces;
  for (std::uint32_t core = 0; core < spec.workload.threads(); ++core) {
    if (spec.workload.trace_backed()) {
      cfg.cores.push_back(workloads::trace_core_params());
      traces.push_back(std::make_unique<sim::FileTraceSource>(spec.workload.traces[core]));
    } else {
      const auto& profile = workloads::benchmark(spec.workload.benchmarks[core]);
      cfg.cores.push_back(profile.core);
      traces.push_back(workloads::make_trace(profile, core, spec.seed));
    }
  }
  sim::CmpSimulator sim(std::move(cfg), std::move(traces));
  auto result = sim.run();
  // Name each trace-backed core after its workload entry, not its file: two
  // traces may share a basename, which only the workload's "@<core>" suffix
  // tells apart. Synthetic cores keep their profile's name ("perl" runs the
  // "perlbmk" profile, and the CSV has always said "perlbmk").
  if (spec.workload.trace_backed()) {
    for (std::size_t core = 0; core < result.threads.size(); ++core)
      result.threads[core].benchmark = spec.workload.benchmarks[core];
  }
  return result;
}

std::uint64_t jobs_fingerprint(const std::vector<RunSpec>& jobs) {
  // Textual fold: every identity field serialized into one byte stream, then
  // FNV-1a'd. Text (not memcpy of structs) keeps the value independent of
  // padding, endianness, and struct layout across platforms.
  std::string acc;
  acc.reserve(256);
  std::uint64_t h = fnv1a64("plrupart-jobs-v1");
  for (const auto& s : jobs) {
    acc.clear();
    acc += std::to_string(s.job_index);
    acc += '|';
    acc += s.config;
    acc += '|';
    acc += s.workload.id;
    for (const auto& b : s.workload.benchmarks) {
      acc += ';';
      acc += b;
    }
    for (const auto& t : s.workload.traces) {
      acc += '&';
      acc += t;
    }
    acc += '|';
    acc += std::to_string(s.l1d.size_bytes) + ',' + std::to_string(s.l1d.associativity) +
           ',' + std::to_string(s.l1d.line_bytes);
    acc += '|';
    acc += std::to_string(s.l2.size_bytes) + ',' + std::to_string(s.l2.associativity) +
           ',' + std::to_string(s.l2.line_bytes);
    acc += '|';
    acc += std::to_string(s.instr) + ',' + std::to_string(s.warmup) + ',' +
           std::to_string(s.interval_cycles) + ',' + std::to_string(s.sampling_ratio) +
           ',' + std::to_string(s.seed);
    // Timed-only marker: functional jobs serialize exactly as before this
    // field existed, so every pre-timed journal fingerprint stays valid.
    if (s.timing == sim::TimingMode::kTimed) acc += "|timed";
    acc += '\n';
    h = fnv1a64(acc, h);
  }
  return h;
}

std::uint64_t RunMatrix::job_seed(std::size_t wi) const noexcept {
  return derive_seed(seed, wi);
}

std::vector<RunSpec> RunMatrix::expand() const {
  validate();
  std::vector<RunSpec> jobs;
  jobs.reserve(size());
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const std::uint64_t row_seed = job_seed(wi);
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      for (std::size_t li = 0; li < l2_kb.size(); ++li) {
        RunSpec s;
        s.job_index = index_of(wi, ci, li);
        s.config = configs[ci];
        s.workload = workloads[wi];
        s.l1d = l1d;
        s.l2 = cache::Geometry{
            .size_bytes = l2_kb[li] * 1024, .associativity = assoc, .line_bytes = line};
        s.instr = instr;
        s.warmup = warmup;
        s.interval_cycles = interval_cycles;
        s.sampling_ratio = sampling_ratio;
        s.seed = row_seed;
        s.sim_threads = sim_threads;
        s.timing = timing;
        PLRUPART_ASSERT(s.job_index == jobs.size());
        jobs.push_back(std::move(s));
      }
    }
  }
  return jobs;
}

void RunMatrix::validate() const {
  PLRUPART_ASSERT_MSG(!configs.empty(), "run matrix has no configurations");
  PLRUPART_ASSERT_MSG(!workloads.empty(), "run matrix has no workloads");
  PLRUPART_ASSERT_MSG(!l2_kb.empty(), "run matrix has no L2 sizes");
  const auto& known = core::CpaConfig::known_acronyms();
  for (const auto& c : configs) {
    if (std::find(known.begin(), known.end(), c) == known.end())
      throw InvariantError("unknown configuration acronym: " + c +
                           " (see --list-configs)");
  }
  l1d.validate();
  // Fail fast on unreadable/malformed trace files — before any sweep work,
  // per workload rather than per (workload, config, size) cell.
  for (const auto& w : workloads) {
    if (!w.trace_backed()) continue;
    PLRUPART_ASSERT_MSG(w.traces.size() == w.benchmarks.size(),
                        "trace workload " + w.id + " has " +
                            std::to_string(w.traces.size()) + " trace files for " +
                            std::to_string(w.benchmarks.size()) + " cores");
    for (const auto& path : w.traces) (void)sim::probe_trace_file(path);
  }
  for (const auto kb : l2_kb) {
    const cache::Geometry g{
        .size_bytes = kb * 1024, .associativity = assoc, .line_bytes = line};
    g.validate();
    for (const auto& w : workloads) {
      PLRUPART_ASSERT_MSG(w.threads() >= 1, "workload " + w.id + " has no benchmarks");
      PLRUPART_ASSERT_MSG(w.threads() <= assoc,
                          "workload " + w.id + " has " + std::to_string(w.threads()) +
                              " threads but the L2 has only " + std::to_string(assoc) +
                              " ways");
    }
  }
}

}  // namespace plrupart::runner
