// Set-sharded replay engine: one run, K shard workers + 1 demux thread,
// byte-identical to CmpSimulator's serial loop.
//
// Why this parallelizes at all: within a controller interval, every piece of
// per-access L2 state (tags, per-set replacement metadata, owner masks, ATD
// sets) is indexed by the L2 set, and the set spaces of different accesses
// never interact. Partition decisions — the only cross-set coupling — happen
// at interval boundaries. So the set space is cut into K contiguous ranges
// and only boundary crossings synchronize.
//
// Why it is *bit-identical* and not merely statistically equivalent: the
// serial loop's timing feedback (core clocks depend on L2 hit/miss outcomes,
// and the interleave order depends on the clocks) is replicated, not
// approximated. Every worker runs the one replay loop (sim/replay_loop.hpp)
// — core models, warmup/freeze bookkeeping, the argmin scheduler — over the
// same per-core op streams, so every worker derives the same interleave, the
// same `now` timestamps, and the same boundary ops as the serial path. Only
// the L2 port differs (ShardPort below), and what it *partitions* is only the
// expensive part: the owner of an access's set performs the real L2 access
// (stats externalized to a per-shard bundle) and broadcasts the hit/miss
// bit; everyone else consumes the bit. Per-core L1s are program-order-
// deterministic, so the demux thread drives them while decoding traces and
// ships (addr, gap, write, l1_hit) records downstream.
//
// Profiling merges exactly: each (shard, core) keeps a full Profiler replica
// seeded like the canonical one. Only sampled sets touch an ATD, every ATD
// set is fed by exactly one L2 set, and ATD replacement state is per-set, so
// replicas over disjoint set ranges observe precisely the serial per-set
// streams. SDH registers are uint64 sums of per-set contributions; at each
// boundary the barrier's critical section folds them into the canonical
// profilers and runs the real IntervalController::tick — decision, cost
// model, hysteresis, decay, history, enforcement callback all included.
//
// Residual divergences, all invisible to SimResult/CSV: canonical ATD
// contents stay cold (estimates live in the replicas), and the demux thread
// runs the L1s ahead of the merge loop by up to the ring capacity, so final
// L1 contents differ from serial. HierarchyCounters are replicated and
// installed from worker 0; L2 stats deltas are absorbed in shard order
// (integer sums, order-independent).
#include "sim/sharded_replay.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/parallel.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/common/rng.hpp"
#include "sim/replay_loop.hpp"
#include "sim/shard_sync.hpp"

namespace plrupart::sim::internal {

namespace {

/// What the demux thread ships per memory operation: the trace record plus
/// the (core-local, deterministic) L1 outcome.
struct OpRecord {
  cache::Addr addr = 0;
  std::uint32_t gap_instrs = 0;
  std::uint8_t write = 0;
  std::uint8_t l1_hit = 0;
};

constexpr std::size_t kOpRingSlots = std::size_t{1} << 12;       // per core
constexpr std::size_t kOutcomeRingSlots = std::size_t{1} << 15;  // per shard

/// Everything the demux thread and the K workers of one run share.
struct ShardedRun {
  ShardedRun(const SimConfig& config, MemoryHierarchy& hierarchy, std::uint32_t k,
             const ShardedTestHooks* test_hooks)
      : l2(hierarchy.l2()),
        geo(config.hierarchy.l2.geometry),
        shards(k),
        set_bits(ilog2_exact(geo.sets())),
        faults(config.faults != nullptr && config.faults->armed(FaultSite::kWorker)
                   ? config.faults.get()
                   : nullptr),
        hooks(test_hooks),
        barrier(k),
        replicas(k),
        stats(k, cache::CacheStatsBundle(hierarchy.num_cores())) {
    const std::uint32_t n = hierarchy.num_cores();
    if (config.timeout_s > 0.0) {
      abort.arm_deadline(
          std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(config.timeout_s)),
          "simulation exceeded watchdog deadline of " + std::to_string(config.timeout_s) +
              " s (set-sharded run, " + std::to_string(shards) + " shards)");
    }
    op_rings.reserve(n);
    for (std::uint32_t c = 0; c < n; ++c)
      op_rings.push_back(std::make_unique<BroadcastRing<OpRecord>>(kOpRingSlots, shards));
    outcome_rings.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s)
      outcome_rings.push_back(
          std::make_unique<BroadcastRing<std::uint8_t>>(kOutcomeRingSlots, shards));
    // Replicas are seeded exactly like the canonical profilers so replica
    // ATDs reproduce the serial per-set observations.
    const core::CpaConfig& l2cfg = config.hierarchy.l2;
    if (!l2cfg.partitioned()) return;
    for (auto& shard : replicas) {
      shard.reserve(n);
      for (std::uint32_t c = 0; c < n; ++c) {
        shard.push_back(core::make_profiler(
            l2cfg.profiler, l2cfg.replacement, geo, l2cfg.sampling_ratio,
            l2cfg.esdh_scale, l2cfg.nru_update, derive_seed(l2cfg.seed, c)));
      }
    }
  }

  /// Fold every shard's replica SDH records into the canonical profilers.
  void absorb_replicas() {
    for (std::uint32_t c = 0; c < replicas.front().size(); ++c) {
      core::Profiler& canonical = l2.profiler_mut(c);
      for (const auto& shard : replicas) canonical.absorb_shard(*shard[c]);
    }
  }

  core::PartitionedCacheSystem& l2;
  const cache::Geometry& geo;
  std::uint32_t shards;
  std::uint32_t set_bits;
  const FaultPlan* faults;  ///< non-null when FaultSite::kWorker is armed
  const ShardedTestHooks* hooks;
  AbortFlag abort;
  ShardBarrier barrier;
  std::vector<std::unique_ptr<BroadcastRing<OpRecord>>> op_rings;  ///< per core
  /// Per shard. Every worker is a registered consumer; the owning worker
  /// publishes and self-skips so its own cursor never gates the ring.
  std::vector<std::unique_ptr<BroadcastRing<std::uint8_t>>> outcome_rings;
  /// Per-(shard, core) profiler replicas; empty per shard when unpartitioned.
  std::vector<std::vector<std::unique_ptr<core::Profiler>>> replicas;
  std::vector<cache::CacheStatsBundle> stats;  ///< per shard
};

/// The set-sharded L2 port of worker `w`, owning the L2 work for sets in
/// [w*S/K, (w+1)*S/K). Ops come from the demux rings with their L1 outcome
/// attached; the counters the serial MemoryHierarchy would keep are
/// replicated here. No watchdog poll: every blocking ring/barrier wait
/// already polls the AbortFlag that carries the deadline.
struct ShardPort {
  ShardedRun& run;
  std::uint32_t w;
  std::vector<HierarchyCounters> ctrs;
  std::uint64_t owned_ops = 0;  ///< this worker's kWorker fault-opportunity counter

  static void poll() noexcept {}
  OpRecord next(std::uint32_t core) { return run.op_rings[core]->pop(w, run.abort); }
  [[nodiscard]] const HierarchyCounters& counters(std::uint32_t core) const {
    return ctrs[core];
  }

  AccessLevel access(std::uint32_t core, const OpRecord& op, std::uint64_t now,
                     L2Echo& /*echo*/) {
    HierarchyCounters& ctr = ctrs[core];
    ++ctr.l1_accesses;
    if (op.l1_hit != 0) return AccessLevel::kL1;
    ++ctr.l1_misses;
    ++ctr.l2_accesses;
    const cache::Addr line = run.geo.line_addr(op.addr);
    const std::uint64_t set = run.geo.set_index(line);
    const auto shard = static_cast<std::uint32_t>((set * run.shards) >> run.set_bits);

    if (run.l2.config().partitioned()) {
      // Same per-op order as the serial PartitionedCacheSystem::access:
      // profile, then boundary check, then the cache access (which runs
      // under the freshly-applied partition on a boundary op). The
      // controller is written only inside the barrier's critical section,
      // so every worker reads the same boundary here.
      if (shard == w) run.replicas[w][core]->record_access(line);
      if (run.l2.controller()->due(now)) {
        run.barrier.arrive_and_wait(run.abort, [&] {
          run.absorb_replicas();
          run.l2.controller_mut()->tick(now);
        });
      }
    }

    bool l2_hit;
    if (shard == w) {
      if (run.faults != nullptr) {
        run.faults->maybe_throw(FaultSite::kWorker, owned_ops++, w,
                                "shard worker " + std::to_string(w) + '/' +
                                    std::to_string(run.shards));
      }
      if (run.hooks != nullptr && run.hooks->on_owned_access)
        run.hooks->on_owned_access(w);
      l2_hit = run.l2.l2().access(core, op.addr, op.write != 0, run.stats[w]).hit;
      run.outcome_rings[w]->push(l2_hit ? 1 : 0, run.abort);
      run.outcome_rings[w]->skip(w);
    } else {
      l2_hit = run.outcome_rings[shard]->pop(w, run.abort) != 0;
    }
    if (l2_hit) return AccessLevel::kL2;
    ++ctr.l2_misses;
    return AccessLevel::kMemory;
  }
};

}  // namespace

bool set_sharding_supported(const core::CpaConfig& l2) {
  switch (l2.replacement) {
    case cache::ReplacementKind::kLru:
    case cache::ReplacementKind::kTreePlru:
    case cache::ReplacementKind::kSrrip:
      break;
    case cache::ReplacementKind::kNru:     // cache-global rotating pointer
    case cache::ReplacementKind::kRandom:  // one shared RNG stream
      return false;
  }
  if (!l2.partitioned()) return true;
  // kAuto never resolves to the NRU profiler for the replacements admitted
  // above, so only an explicit NRU eSDH request blocks sharding.
  return l2.profiler != core::ProfilerKind::kNru;
}

std::uint32_t resolve_sim_shards(const SimConfig& config) {
  // The timed overlay's MSHR/DRAM state is cache-global (one event queue, one
  // bank file), so timed runs are always serial.
  if (config.timing_mode == TimingMode::kTimed) return 1;
  const std::uint64_t want = config.sim_threads == 0
                                 ? static_cast<std::uint64_t>(default_parallelism())
                                 : config.sim_threads;
  if (want <= 1) return 1;
  if (!set_sharding_supported(config.hierarchy.l2)) return 1;
  return static_cast<std::uint32_t>(
      std::min(want, config.hierarchy.l2.geometry.sets()));
}

SimResult run_set_sharded(const SimConfig& config,
                          const std::vector<std::unique_ptr<TraceSource>>& traces,
                          MemoryHierarchy& hierarchy, std::uint32_t shards,
                          const ShardedTestHooks* hooks) {
  const std::uint32_t n = hierarchy.num_cores();
  PLRUPART_ASSERT(shards >= 2 && shards <= config.hierarchy.l2.geometry.sets());
  PLRUPART_ASSERT(config.cores.size() == n && traces.size() == n);

  ShardedRun run(config, hierarchy, shards, hooks);
  std::atomic<bool> stop{false};
  SimResult out;  // every worker computes the same result; worker 0 reports it
  std::vector<HierarchyCounters> counters;
  std::vector<std::string> names(n);
  for (std::uint32_t c = 0; c < n; ++c) names[c] = traces[c]->name();

  // Demux: decode each core's trace in program order, drive its private L1
  // (whose outcome depends only on that core's address sequence), broadcast
  // the op. Round-robin over non-full rings so one lagging ring never blocks
  // records another worker is waiting for; push() below therefore never has
  // to wait, which also makes the stop flag sufficient for shutdown.
  auto producer_body = [&] {
    std::uint32_t spins = 0;
    while (!stop.load(std::memory_order_acquire) && !run.abort.aborted()) {
      // The demux doubles as the watchdog's last line of defense: if every
      // worker is wedged outside a blocking loop, this poll still expires the
      // deadline (check() throws ShardAbort, caught by the thread wrapper).
      run.abort.check();
      bool produced = false;
      for (std::uint32_t c = 0; c < n; ++c) {
        if (!run.op_rings[c]->can_push()) continue;
        const MemOp op = traces[c]->next();
        const bool l1_hit = hierarchy.l1d_mut(c).access(op.addr);
        OpRecord rec;
        rec.addr = op.addr;
        rec.gap_instrs = op.gap_instrs;
        rec.write = op.write ? 1 : 0;
        rec.l1_hit = l1_hit ? 1 : 0;
        run.op_rings[c]->push(rec, run.abort);
        produced = true;
      }
      if (!produced) shard_relax(spins);
    }
  };

  auto worker_body = [&](std::uint32_t w) {
    ShardPort port{.run = run, .w = w, .ctrs = std::vector<HierarchyCounters>(n)};
    FunctionalClocks clocks;
    SimResult result = replay(config, names, hierarchy.l2(), port, clocks);
    if (w == 0) {
      out = std::move(result);
      counters = std::move(port.ctrs);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(shards + 1);
  threads.emplace_back([&] {
    try {
      producer_body();
    } catch (const ShardAbort&) {
    } catch (...) {
      run.abort.raise(std::current_exception());
    }
  });
  for (std::uint32_t w = 0; w < shards; ++w) {
    threads.emplace_back([&, w] {
      try {
        worker_body(w);
      } catch (const ShardAbort&) {
      } catch (...) {
        run.abort.raise(std::current_exception());
      }
    });
  }
  for (std::size_t t = 1; t < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads[0].join();
  run.abort.rethrow_if_error();

  // Fold the partitioned-off state back so post-run introspection matches
  // serial: tail-interval SDH records, L2 stat deltas, replicated counters.
  run.absorb_replicas();
  for (std::uint32_t s = 0; s < shards; ++s)
    hierarchy.l2().l2().absorb_stats(run.stats[s]);
  for (std::uint32_t c = 0; c < n; ++c) hierarchy.set_counters(c, counters[c]);
  out.sim_shards = shards;
  return out;
}

}  // namespace plrupart::sim::internal
