// Declarative run-matrix description: the input language of the sweep engine.
//
// A RunMatrix is the cartesian product of three axes — configuration acronyms,
// workloads, and L2 sizes — over one set of shared simulation parameters.
// expand() flattens it into RunSpecs in *canonical order* (workload-major,
// then config, then L2 size). Every RunSpec carries its canonical position
// (`job_index`) and a seed derived from the matrix position, so a job
// simulates identically whether it runs alone or in a thread pool.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/workload_table.hpp"

namespace plrupart::runner {

/// One fully-resolved simulation job. Value type: cheap to copy across
/// thread boundaries.
struct PLRUPART_EXPORT RunSpec {
  std::uint64_t job_index = 0;   ///< canonical position in the FULL matrix
  std::string config;            ///< L2 configuration acronym (CpaConfig)
  workloads::Workload workload;  ///< id + one benchmark per core
  cache::Geometry l1d{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128};
  cache::Geometry l2;
  std::uint64_t instr = 1'000'000;
  std::uint64_t warmup = 500'000;
  std::uint64_t interval_cycles = 1'000'000;
  std::uint32_t sampling_ratio = 32;
  /// Per-job deterministic seed (feeds trace generation).
  /// Derived from the matrix position — see RunMatrix::job_seed().
  std::uint64_t seed = 1;
  /// Intra-run front-end producers (SimConfig::sim_threads): 1 = serial,
  /// 0 = as many as the free CPUs allow. Results are identical at any
  /// value, so this is a performance knob, not part of the job's identity
  /// (key() ignores it).
  std::uint32_t sim_threads = 1;
  /// Timing mode (SimConfig::timing_mode). Unlike sim_threads this IS part of
  /// the job's identity — timed results carry extra columns and different
  /// cycle counts — so jobs_fingerprint folds it in (timed jobs only, keeping
  /// every pre-timed functional journal fingerprint unchanged).
  sim::TimingMode timing = sim::TimingMode::kFunctional;

  /// Human-readable job key, unique within one matrix:
  /// "<workload>|<config>|<l2 KB>".
  [[nodiscard]] std::string key() const;
};

/// Run one job to completion. Deterministic: identical RunSpecs produce
/// bit-identical SimResults on any machine, serial or pipelined
/// (sim_threads).
[[nodiscard]] PLRUPART_EXPORT sim::SimResult execute(const RunSpec& spec);

/// Content fingerprint of a job list: folds every identity field of every
/// job (position, config, workload, geometries, quotas, seed — but NOT
/// sim_threads, which is a performance knob) into one stable 64-bit value.
/// The journal stamps this into every record so --resume can prove the
/// on-disk state belongs to THIS matrix and not a stale or edited one.
[[nodiscard]] PLRUPART_EXPORT std::uint64_t jobs_fingerprint(const std::vector<RunSpec>& jobs);

/// The declarative sweep: axes × shared parameters.
struct PLRUPART_EXPORT RunMatrix {
  std::vector<std::string> configs;               ///< CpaConfig acronyms
  std::vector<workloads::Workload> workloads;     ///< Table II ids, ad-hoc mixes, or
                                                  ///< trace-backed workloads
                                                  ///< (workload_from_traces)
  std::vector<std::uint64_t> l2_kb{1024};         ///< L2 sizes to sweep
  std::uint32_t assoc = 16;
  std::uint32_t line = 128;
  cache::Geometry l1d{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128};
  std::uint64_t instr = 1'000'000;
  std::uint64_t warmup = 500'000;
  std::uint64_t interval_cycles = 1'000'000;
  std::uint32_t sampling_ratio = 32;
  std::uint64_t seed = 1;  ///< root seed; per-job seeds derive from it
  std::uint32_t sim_threads = 1;  ///< intra-run front-end producers per job
  sim::TimingMode timing = sim::TimingMode::kFunctional;  ///< all jobs' timing mode

  /// Number of jobs in the full matrix.
  [[nodiscard]] std::size_t size() const noexcept {
    return configs.size() * workloads.size() * l2_kb.size();
  }

  /// Canonical position of (workload wi, config ci, size li). The workload
  /// axis is outermost so that a single-config single-size matrix lists jobs
  /// in plain workload order.
  [[nodiscard]] std::size_t index_of(std::size_t wi, std::size_t ci,
                                     std::size_t li = 0) const noexcept {
    return (wi * configs.size() + ci) * l2_kb.size() + li;
  }

  /// Seed for every job in workload row `wi`. Only the workload coordinate
  /// participates: all configs and L2 sizes of one workload replay identical
  /// trace streams, so the config and size axes stay paired comparisons,
  /// while distinct workloads get decorrelated streams. Independent of thread
  /// count by construction.
  [[nodiscard]] std::uint64_t job_seed(std::size_t wi) const noexcept;

  /// Flatten into jobs in canonical order; result[k].job_index == k.
  /// Calls validate() first.
  [[nodiscard]] std::vector<RunSpec> expand() const;

  /// Fail loudly on an unrunnable matrix: empty axes, bad geometry, unknown
  /// acronyms, or a workload with more threads than the L2 has ways.
  void validate() const;
};

}  // namespace plrupart::runner
