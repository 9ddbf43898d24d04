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
// approximated. Every worker replays the full global merge loop — core
// models, counters, warmup/freeze bookkeeping, the argmin scheduler — over
// the same per-core op streams, so every worker derives the same interleave,
// the same `now` timestamps, and the same boundary ops as the serial path.
// What is *partitioned* is only the expensive part: the owner of an access's
// set performs the real L2 access (stats externalized to a per-shard bundle)
// and broadcasts the hit/miss bit; everyone else consumes the bit. Per-core
// L1s are program-order-deterministic, so the demux thread drives them while
// decoding traces and ships (addr, gap, write, l1_hit) records downstream.
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
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "common/parallel.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/common/rng.hpp"
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

struct WorkerOut {
  std::vector<ThreadResult> threads;
  std::vector<HierarchyCounters> counters;
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
  const core::CpaConfig& l2cfg = config.hierarchy.l2;
  const cache::Geometry& geo = l2cfg.geometry;
  const bool partitioned = l2cfg.partitioned();
  const std::uint32_t set_bits = ilog2_exact(geo.sets());
  PLRUPART_ASSERT(shards >= 2 && shards <= geo.sets());
  PLRUPART_ASSERT(config.cores.size() == n && traces.size() == n);

  AbortFlag abort;
  ShardBarrier barrier(shards);
  std::atomic<bool> stop{false};
  if (config.timeout_s > 0.0) {
    abort.arm_deadline(
        std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(config.timeout_s)),
        "simulation exceeded watchdog deadline of " + std::to_string(config.timeout_s) +
            " s (set-sharded run, " + std::to_string(shards) + " shards)");
  }
  const FaultPlan* worker_faults =
      config.faults != nullptr && config.faults->armed(FaultSite::kWorker)
          ? config.faults.get()
          : nullptr;

  std::vector<std::unique_ptr<BroadcastRing<OpRecord>>> op_rings;
  op_rings.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c)
    op_rings.push_back(std::make_unique<BroadcastRing<OpRecord>>(kOpRingSlots, shards));

  // Outcome rings register all K workers as consumers; the owning worker
  // publishes and self-skips so its own cursor never gates the ring.
  std::vector<std::unique_ptr<BroadcastRing<std::uint8_t>>> outcome_rings;
  outcome_rings.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s)
    outcome_rings.push_back(
        std::make_unique<BroadcastRing<std::uint8_t>>(kOutcomeRingSlots, shards));

  // Per-(shard, core) profiler replicas, seeded exactly like the canonical
  // profilers so replica ATDs reproduce the serial per-set observations.
  std::vector<std::vector<std::unique_ptr<core::Profiler>>> replicas(shards);
  if (partitioned) {
    for (std::uint32_t s = 0; s < shards; ++s) {
      replicas[s].reserve(n);
      for (std::uint32_t c = 0; c < n; ++c) {
        replicas[s].push_back(core::make_profiler(
            l2cfg.profiler, l2cfg.replacement, geo, l2cfg.sampling_ratio,
            l2cfg.esdh_scale, l2cfg.nru_update, derive_seed(l2cfg.seed, c)));
      }
    }
  }

  std::vector<cache::CacheStatsBundle> shard_stats(shards, cache::CacheStatsBundle(n));
  std::vector<WorkerOut> outs(shards);
  for (auto& o : outs) {
    o.threads.resize(n);
    o.counters.resize(n);
  }
  std::vector<std::string> names(n);
  for (std::uint32_t c = 0; c < n; ++c) names[c] = traces[c]->name();

  // Demux: decode each core's trace in program order, drive its private L1
  // (whose outcome depends only on that core's address sequence), broadcast
  // the op. Round-robin over non-full rings so one lagging ring never blocks
  // records another worker is waiting for; push() below therefore never has
  // to wait, which also makes the stop flag sufficient for shutdown.
  auto producer_body = [&] {
    std::uint32_t spins = 0;
    while (!stop.load(std::memory_order_acquire) && !abort.aborted()) {
      // The demux doubles as the watchdog's last line of defense: if every
      // worker is wedged outside a blocking loop, this poll still expires the
      // deadline (check() throws ShardAbort, caught by the thread wrapper).
      abort.check();
      bool produced = false;
      for (std::uint32_t c = 0; c < n; ++c) {
        if (!op_rings[c]->can_push()) continue;
        const MemOp op = traces[c]->next();
        const bool l1_hit = hierarchy.l1d_mut(c).access(op.addr);
        OpRecord rec;
        rec.addr = op.addr;
        rec.gap_instrs = op.gap_instrs;
        rec.write = op.write ? 1 : 0;
        rec.l1_hit = l1_hit ? 1 : 0;
        op_rings[c]->push(rec, abort);
        produced = true;
      }
      if (!produced) shard_relax(spins);
    }
  };

  // Shard worker: replays the serial merge loop verbatim (same statements in
  // the same order on the same values — see cmp_simulator.cpp run()), owning
  // the L2 work for sets in [w*S/K, (w+1)*S/K).
  auto worker_body = [&](std::uint32_t w) {
    std::vector<CoreModel> models;
    models.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) models.emplace_back(config.cores[i]);

    struct Baseline {
      std::uint64_t instructions = 0;
      double cycles = 0.0;
      HierarchyCounters mem;
    };
    std::vector<Baseline> baselines(n);
    std::vector<HierarchyCounters> counters(n);
    bool windows_open = config.warmup_instr == 0;
    std::vector<bool> frozen(n, false);
    std::vector<ThreadResult>& results = outs[w].threads;
    std::uint32_t remaining = n;

    const std::uint64_t interval = l2cfg.interval_cycles;
    std::uint64_t next_boundary = interval;  // mirrors IntervalController
    std::uint64_t owned_ops = 0;  // this worker's kWorker fault-opportunity counter
    cache::SetAssocCache& l2cache = hierarchy.l2().l2();
    cache::CacheStatsBundle& my_stats = shard_stats[w];

    while (remaining > 0) {
      std::uint32_t core = 0;
      double min_cycles = std::numeric_limits<double>::infinity();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (models[i].cycles() < min_cycles) {
          min_cycles = models[i].cycles();
          core = i;
        }
      }

      const OpRecord op = op_rings[core]->pop(w, abort);
      models[core].commit_gap(op.gap_instrs);
      const auto now = static_cast<std::uint64_t>(models[core].cycles());

      AccessLevel level = AccessLevel::kL1;
      ++counters[core].l1_accesses;
      if (op.l1_hit == 0) {
        ++counters[core].l1_misses;
        ++counters[core].l2_accesses;
        const cache::Addr line = geo.line_addr(op.addr);
        const std::uint64_t set = geo.set_index(line);
        const auto shard = static_cast<std::uint32_t>((set * shards) >> set_bits);

        if (partitioned) {
          // Same per-op order as the serial PartitionedCacheSystem::access:
          // profile, then boundary check, then the cache access (which runs
          // under the freshly-applied partition on a boundary op).
          if (shard == w) replicas[w][core]->record_access(line);
          if (now >= next_boundary) {
            barrier.arrive_and_wait(abort, [&] {
              for (std::uint32_t c = 0; c < n; ++c) {
                core::Profiler& canonical = hierarchy.l2().profiler_mut(c);
                for (std::uint32_t s = 0; s < shards; ++s)
                  canonical.absorb_shard(*replicas[s][c]);
              }
              hierarchy.l2().controller_mut()->tick(now);
            });
            while (next_boundary <= now) next_boundary += interval;
          }
        }

        bool l2_hit;
        if (shard == w) {
          if (worker_faults != nullptr) {
            worker_faults->maybe_throw(FaultSite::kWorker, owned_ops++, w,
                                       "shard worker " + std::to_string(w) + '/' +
                                           std::to_string(shards));
          }
          if (hooks != nullptr && hooks->on_owned_access) hooks->on_owned_access(w);
          l2_hit = l2cache.access(core, op.addr, op.write != 0, my_stats).hit;
          outcome_rings[w]->push(l2_hit ? 1 : 0, abort);
          outcome_rings[w]->skip(w);
        } else {
          l2_hit = outcome_rings[shard]->pop(w, abort) != 0;
        }
        if (l2_hit) {
          level = AccessLevel::kL2;
        } else {
          ++counters[core].l2_misses;
          level = AccessLevel::kMemory;
        }
      }
      models[core].commit_mem(level);

      if (!windows_open) {
        std::uint64_t min_instr = models[0].instructions();
        for (std::uint32_t i = 1; i < n; ++i)
          min_instr = std::min(min_instr, models[i].instructions());
        if (min_instr >= config.warmup_instr) {
          windows_open = true;
          for (std::uint32_t i = 0; i < n; ++i) {
            baselines[i].instructions = models[i].instructions();
            baselines[i].cycles = models[i].cycles();
            baselines[i].mem = counters[i];
          }
        }
        continue;
      }

      if (!frozen[core] && models[core].instructions() >=
                               baselines[core].instructions + config.instr_limit) {
        frozen[core] = true;
        --remaining;
        const Baseline& base = baselines[core];
        ThreadResult& r = results[core];
        r.benchmark = names[core];
        r.instructions = models[core].instructions() - base.instructions;
        r.cycles = models[core].cycles() - base.cycles;
        r.ipc = r.cycles > 0.0 ? static_cast<double>(r.instructions) / r.cycles : 0.0;
        const HierarchyCounters& now_mem = counters[core];
        r.mem.l1_accesses = now_mem.l1_accesses - base.mem.l1_accesses;
        r.mem.l1_misses = now_mem.l1_misses - base.mem.l1_misses;
        r.mem.l2_accesses = now_mem.l2_accesses - base.mem.l2_accesses;
        r.mem.l2_misses = now_mem.l2_misses - base.mem.l2_misses;
      }
    }
    outs[w].counters = std::move(counters);
  };

  std::vector<std::thread> threads;
  threads.reserve(shards + 1);
  threads.emplace_back([&] {
    try {
      producer_body();
    } catch (const ShardAbort&) {
    } catch (...) {
      abort.raise(std::current_exception());
    }
  });
  for (std::uint32_t w = 0; w < shards; ++w) {
    threads.emplace_back([&, w] {
      try {
        worker_body(w);
      } catch (const ShardAbort&) {
      } catch (...) {
        abort.raise(std::current_exception());
      }
    });
  }
  for (std::size_t t = 1; t < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads[0].join();
  abort.rethrow_if_error();

  // Fold the partitioned-off state back so post-run introspection matches
  // serial: tail-interval SDH records, L2 stat deltas, replicated counters.
  if (partitioned) {
    for (std::uint32_t c = 0; c < n; ++c) {
      core::Profiler& canonical = hierarchy.l2().profiler_mut(c);
      for (std::uint32_t s = 0; s < shards; ++s)
        canonical.absorb_shard(*replicas[s][c]);
    }
  }
  for (std::uint32_t s = 0; s < shards; ++s)
    hierarchy.l2().l2().absorb_stats(shard_stats[s]);
  for (std::uint32_t c = 0; c < n; ++c)
    hierarchy.set_counters(c, outs[0].counters[c]);

  SimResult out;
  out.threads = std::move(outs[0].threads);
  for (const auto& t : out.threads) out.wall_cycles = std::max(out.wall_cycles, t.cycles);
  const auto* ctrl = hierarchy.l2().controller();
  out.repartitions = ctrl ? ctrl->history().size() : 0;
  out.l2_config = hierarchy.l2().config().acronym();
  out.sim_shards = shards;
  return out;
}

}  // namespace plrupart::sim::internal
