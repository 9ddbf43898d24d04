// Reference implementation of CmpSimulator's replay, frozen at the per-op
// loop: every step runs the argmin over all cores' functional clocks and
// executes exactly one op of the winner, fetched from its trace at that step
// and sent through the whole MemoryHierarchy::access (L1, then L2). The timed
// clocks are the same loop's TimedClocks arithmetic, written out over the
// public TimedMemory calls, and the functional clocks are CoreModel's
// arithmetic as it was, recomputing each charge from CoreParams on every op.
//
// test_replay_order_diff.cpp runs the production simulator (which orders only
// the ops with effects outside their own core, and lets each core run ahead
// through its private-L1 hits) and this loop on the same generated cases, and
// asserts every result field, the controller history and the timed counters
// equal bit for bit. test_sharded_sim.cpp takes from it the number of ops the
// serial order executes per core.
//
// Deliberately NOT deduplicated with src/sim/replay_loop.hpp: sharing code
// would let a bug in the run-ahead loop hide in the reference. Only the public
// hierarchy, TimedMemory and result structs are shared.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "plrupart/common/assert.hpp"
#include "plrupart/core/controller.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/sim/memory_hierarchy.hpp"
#include "plrupart/sim/timed_memory.hpp"

namespace plrupart::testing {

struct ReferenceReplay {
  sim::SimResult result;
  std::vector<core::RepartitionEvent> history;  ///< empty when unpartitioned
  std::vector<std::uint64_t> ops;               ///< ops executed per core
};

/// Run `config` over `traces` with the per-op loop. `config.sim_threads` is
/// ignored; the result's `sim_shards` stays 1.
inline ReferenceReplay reference_replay(
    sim::SimConfig config, std::vector<std::unique_ptr<sim::TraceSource>> traces) {
  const auto n = static_cast<std::uint32_t>(traces.size());
  PLRUPART_ASSERT(n == config.hierarchy.l2.num_cores);
  if (config.cores.size() == 1 && n > 1) config.cores.assign(n, config.cores.front());
  PLRUPART_ASSERT(config.cores.size() == n);
  sim::MemoryHierarchy hierarchy(config.hierarchy);
  const bool timed = config.timing_mode == sim::TimingMode::kTimed;
  sim::TimedMemory memory(config.timed, config.hierarchy.l2.geometry);

  struct Core {
    double cycles = 0.0;  ///< functional clock: drives the interleave
    std::uint64_t instructions = 0;
    double timed_cycles = 0.0;
    sim::TimedMemory::Ticket outstanding{};
    bool has_outstanding = false;
  };
  std::vector<Core> cores(n);
  const auto settle = [&](std::uint32_t c) {
    Core& tc = cores[c];
    if (!tc.has_outstanding) return;
    const auto done = static_cast<double>(memory.retire(tc.outstanding));
    tc.has_outstanding = false;
    if (done > tc.timed_cycles) {
      tc.timed_cycles += (done - tc.timed_cycles) * config.cores[c].stall_fraction;
    }
  };
  const auto clock = [&](std::uint32_t c) {
    return timed ? cores[c].timed_cycles : cores[c].cycles;
  };

  struct Baseline {
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    sim::HierarchyCounters mem;
  };
  std::vector<Baseline> baselines(n);
  sim::TimedStats stats_base;
  bool windows_open = config.warmup_instr == 0;
  std::vector<bool> frozen(n, false);
  std::vector<sim::ThreadResult> results(n);
  std::vector<std::uint64_t> ops(n, 0);
  std::uint32_t remaining = n;

  while (remaining > 0) {
    std::uint32_t core = 0;
    double min_cycles = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (cores[i].cycles < min_cycles) {
        min_cycles = cores[i].cycles;
        core = i;
      }
    }

    const sim::MemOp op = traces[core]->next();
    ++ops[core];
    Core& c = cores[core];
    const sim::CoreParams& cp = config.cores[core];
    c.cycles += static_cast<double>(op.gap_instrs) / cp.base_ipc;
    c.instructions += op.gap_instrs;
    sim::L2Echo echo;
    const auto now = static_cast<std::uint64_t>(c.cycles);
    const sim::AccessLevel level = hierarchy.access(core, op.addr, op.write, now, echo);
    c.cycles += 1.0 / cp.base_ipc;
    if (level == sim::AccessLevel::kL2) c.cycles += cp.l2_hit_penalty * cp.stall_fraction;
    if (level == sim::AccessLevel::kMemory) {
      c.cycles += cp.mem_penalty * cp.stall_fraction;
    }
    ++c.instructions;

    if (timed) {
      c.timed_cycles += (static_cast<double>(op.gap_instrs) + 1.0) / cp.base_ipc;
      if (echo.reached_l2) {
        settle(core);
        const auto t_issue = static_cast<std::uint64_t>(c.timed_cycles);
        const cache::Addr line = config.hierarchy.l2.geometry.line_addr(op.addr);
        if (echo.hit) {
          const auto tk = memory.hit(t_issue, line, echo.way, op.write);
          if (tk.valid) {
            c.outstanding = tk;
            c.has_outstanding = true;
          } else {
            c.timed_cycles +=
                static_cast<double>(config.timed.l2_hit_cycles) * cp.stall_fraction;
          }
        } else {
          c.outstanding = memory.miss(t_issue, line, echo.way, op.write,
                                      echo.evicted_valid, echo.evicted_line);
          c.has_outstanding = true;
        }
      }
    }

    if (!windows_open) {
      std::uint64_t min_instr = cores[0].instructions;
      for (std::uint32_t i = 1; i < n; ++i) {
        min_instr = std::min(min_instr, cores[i].instructions);
      }
      if (min_instr >= config.warmup_instr) {
        windows_open = true;
        if (timed) {
          for (std::uint32_t i = 0; i < n; ++i) settle(i);
          memory.mark();
          stats_base = memory.stats();
        }
        for (std::uint32_t i = 0; i < n; ++i) {
          baselines[i] = {cores[i].instructions, clock(i), hierarchy.counters(i)};
        }
      }
      continue;
    }

    if (!frozen[core] &&
        c.instructions >= baselines[core].instructions + config.instr_limit) {
      frozen[core] = true;
      --remaining;
      if (timed) settle(core);
      const Baseline& base = baselines[core];
      sim::ThreadResult& r = results[core];
      r.benchmark = traces[core]->name();
      r.instructions = c.instructions - base.instructions;
      r.cycles = clock(core) - base.cycles;
      r.ipc = r.cycles > 0.0 ? static_cast<double>(r.instructions) / r.cycles : 0.0;
      const sim::HierarchyCounters& now_mem = hierarchy.counters(core);
      r.mem.l1_accesses = now_mem.l1_accesses - base.mem.l1_accesses;
      r.mem.l1_misses = now_mem.l1_misses - base.mem.l1_misses;
      r.mem.l2_accesses = now_mem.l2_accesses - base.mem.l2_accesses;
      r.mem.l2_misses = now_mem.l2_misses - base.mem.l2_misses;
    }
  }

  ReferenceReplay out;
  out.result.threads = std::move(results);
  for (const auto& t : out.result.threads) {
    out.result.wall_cycles = std::max(out.result.wall_cycles, t.cycles);
  }
  const auto* ctrl = hierarchy.l2().controller();
  out.result.repartitions = ctrl ? ctrl->history().size() : 0;
  if (ctrl) out.history = ctrl->history();
  out.result.l2_config = hierarchy.l2().config().acronym();
  if (timed) {
    out.result.timing = sim::TimingMode::kTimed;
    out.result.timed = memory.stats().delta_since(stats_base);
  }
  out.ops = std::move(ops);
  return out;
}

}  // namespace plrupart::testing
