// CMP simulator: N trace-driven cores over a shared partitioned L2.
//
// Scheduling follows local core time: at every step the core with the
// smallest accumulated cycle count executes its next operation, which
// interleaves threads the way their relative progress would on real hardware
// and keeps the L2 access stream monotone in time (the interval controller
// relies on that).
//
// Per the paper's methodology, simulation ends when every thread has
// committed its instruction quota; threads that finish early keep running
// (wrapping their trace) to keep pressure on the cache, but their statistics
// freeze at the quota boundary.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include "plrupart/sim/memory_hierarchy.hpp"
#include "plrupart/sim/mem_op.hpp"
#include "plrupart/sim/timed_memory.hpp"

namespace plrupart::sim {

struct PLRUPART_EXPORT SimConfig {
  HierarchyConfig hierarchy;
  std::vector<CoreParams> cores;          ///< one per core (benchmark-specific)
  std::uint64_t instr_limit = 2'000'000;  ///< per-thread MEASURED instructions
  /// Intra-run parallelism: front-end producer threads for this run. 1 (the
  /// default) runs the serial loop; K > 1 starts min(K, cores) producers,
  /// each generating its cores' traces and running their private L1s ahead
  /// of the replay, which stays on the calling thread and does the L2 work.
  /// 0 takes the producers from the threads the process leaves free when the
  /// run starts (the CPUs it may use minus its busy simulation threads),
  /// keeping one free for a timed overlay's helper: the fewest that keep the
  /// busiest producer's share of cores as low as the free threads allow, and
  /// none (serial) below 2 or for a run shorter than 10k instructions per
  /// core, warmup included. Every
  /// configuration and both timing modes run this way, with results
  /// byte-identical to the serial loop at any value. SimResult::sim_shards
  /// reports the producers used.
  std::uint32_t sim_threads = 1;
  /// Warmup: measurement windows open for ALL cores at the same wall-cycle
  /// instant — the moment the slowest core has committed this many
  /// instructions. Until then caches and the partition controller warm up
  /// uncounted. Aligning the windows matters: a per-core instruction warmup
  /// would let fast cores start measuring while the controller is still
  /// converging, polluting steady-state comparisons. The paper's 100M
  /// SimPoint windows make warmup negligible; at this repo's trace lengths an
  /// explicit warmup is required.
  std::uint64_t warmup_instr = 0;
  /// Timed mode (opt-in): overlay the functional replay with the event-driven
  /// MSHR/writeback/banked-DRAM model. The L2 access stream — and with it
  /// every per-interval partition decision — is identical to functional mode
  /// by construction; only the cycle accounting (and the extra TimedStats)
  /// differ. Timed runs honour sim_threads like functional ones.
  TimingMode timing_mode = TimingMode::kFunctional;
  TimedParams timed;  ///< knobs of the timed overlay (timing_mode == kTimed)
};

struct PLRUPART_EXPORT ThreadResult {
  std::string benchmark;
  std::uint64_t instructions = 0;  ///< measured window only (post-warmup)
  double cycles = 0.0;             ///< cycles spent in the measured window
  double ipc = 0.0;
  HierarchyCounters mem;  ///< memory events within the measured window
};

struct PLRUPART_EXPORT SimResult {
  std::vector<ThreadResult> threads;
  double wall_cycles = 0.0;        ///< cycle count of the last thread to finish
  std::uint64_t repartitions = 0;  ///< interval-controller activations
  std::string l2_config;           ///< acronym of the L2 configuration
  std::uint32_t sim_shards = 1;    ///< front-end producers the run used (1 = serial)
  TimingMode timing = TimingMode::kFunctional;  ///< mode that produced this result
  TimedStats timed;  ///< measured-window deltas; all-zero in functional mode

  [[nodiscard]] double throughput() const {
    double t = 0.0;
    for (const auto& th : threads) t += th.ipc;
    return t;
  }
  [[nodiscard]] std::uint64_t total_l2_accesses() const {
    std::uint64_t n = 0;
    for (const auto& th : threads) n += th.mem.l2_accesses;
    return n;
  }
  [[nodiscard]] std::uint64_t total_l2_misses() const {
    std::uint64_t n = 0;
    for (const auto& th : threads) n += th.mem.l2_misses;
    return n;
  }
  [[nodiscard]] std::uint64_t total_instructions() const {
    std::uint64_t n = 0;
    for (const auto& th : threads) n += th.instructions;
    return n;
  }
};

class PLRUPART_EXPORT CmpSimulator {
 public:
  /// `traces.size()` must equal the hierarchy's core count; `config.cores`
  /// may be a single entry (applied to all) or one entry per core.
  CmpSimulator(SimConfig config, std::vector<std::unique_ptr<TraceSource>> traces);

  /// Run to completion and return per-thread results — serially or through
  /// the front-end pipeline per SimConfig::sim_threads, with identical
  /// results either way. Call once: a second call throws InvariantError (the
  /// hierarchy's warmed-up state cannot be re-run meaningfully). Every run
  /// reads ahead of the ops it executes and commits private-L1 hits ahead of
  /// the interleave, so afterwards the private L1s, the traces and the L1
  /// access counters have moved past the per-op serial state (a pipelined
  /// run's L1s and traces by up to one ring per core); the L2, its profilers
  /// and controller, and every result field match it.
  [[nodiscard]] SimResult run();

  [[nodiscard]] const MemoryHierarchy& hierarchy() const noexcept { return hierarchy_; }

 private:
  SimConfig config_;
  std::vector<std::unique_ptr<TraceSource>> traces_;
  MemoryHierarchy hierarchy_;
  bool ran_ = false;
};

}  // namespace plrupart::sim
