// The replay loop: the one implementation of the paper's methodology behind
// every CmpSimulator mode — serial, timed, and each set-sharded worker.
//
// Threads interleave by local clock (the core with the smallest FUNCTIONAL
// cycle count goes next), measurement windows open for all cores together
// once the slowest has warmed up, and each core freezes its statistics at
// its quota while it keeps running to preserve contention. Two statically
// composed parts vary by mode, and the loop is their whole contract:
//
//  * The L2 port supplies each core's ops and their outcomes. `poll()` runs
//    once per loop step (the watchdog, where the port has one); `next(core)`
//    yields the core's next op (anything with `gap_instrs`); `access(core,
//    op, now, echo)` performs the L1/L2 access stamped at the core's
//    functional clock and returns the satisfying level, filling `echo` if it
//    can; `counters(core)` reports the core's running HierarchyCounters.
//    Every port must return the same levels for the same op stream — that is
//    what keeps the interleave, and with it every partition decision,
//    identical across modes.
//  * The clocks overlay decides which cycle count the run reports:
//    `on_access(core, op, echo)` sees every access after the functional
//    commit, `clock(core, model)` is the reported clock, `open_window()`
//    and `settle(core)` run at window open and at a core's freeze, and
//    `finish(out)` adds mode-specific fields to the result. An overlay only
//    ever reads the functional stream; it never feeds back into it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "plrupart/sim/cmp_simulator.hpp"

namespace plrupart::sim::internal {

/// No overlay: the functional CoreModel clocks are what the run reports.
struct FunctionalClocks {
  [[nodiscard]] static double clock(std::uint32_t /*core*/,
                                    const CoreModel& model) noexcept {
    return model.cycles();
  }
  template <class Op>
  static void on_access(std::uint32_t /*core*/, const Op& /*op*/,
                        const L2Echo& /*echo*/) noexcept {}
  static void open_window() noexcept {}
  static void settle(std::uint32_t /*core*/) noexcept {}
  static void finish(SimResult& /*out*/) noexcept {}
};

/// Replay every core to its quota through `port`, reporting `clocks`.
/// `names[i]` is core i's benchmark name; `l2` supplies the controller
/// history and acronym for the result.
template <class Port, class Clocks>
[[nodiscard]] SimResult replay(const SimConfig& config,
                               const std::vector<std::string>& names,
                               const core::PartitionedCacheSystem& l2, Port& port,
                               Clocks& clocks) {
  const auto n = static_cast<std::uint32_t>(names.size());
  std::vector<CoreModel> models;  // functional clocks: drive the interleave
  models.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) models.emplace_back(config.cores[i]);

  struct Baseline {
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    HierarchyCounters mem;
  };
  std::vector<Baseline> baselines(n);
  bool windows_open = config.warmup_instr == 0;

  std::vector<bool> frozen(n, false);
  std::vector<ThreadResult> results(n);
  std::uint32_t remaining = n;

  while (remaining > 0) {
    port.poll();
    // Advance the core with the smallest local clock (finished cores keep
    // running to preserve contention, with frozen statistics).
    std::uint32_t core = 0;
    double min_cycles = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (models[i].cycles() < min_cycles) {
        min_cycles = models[i].cycles();
        core = i;
      }
    }

    const auto op = port.next(core);
    models[core].commit_gap(op.gap_instrs);
    const auto now = static_cast<std::uint64_t>(models[core].cycles());
    L2Echo echo;
    const AccessLevel level = port.access(core, op, now, echo);
    models[core].commit_mem(level);
    clocks.on_access(core, op, echo);

    if (!windows_open) {
      // Windows open for everyone at once, when the slowest core has warmed.
      std::uint64_t min_instr = models[0].instructions();
      for (std::uint32_t i = 1; i < n; ++i)
        min_instr = std::min(min_instr, models[i].instructions());
      if (min_instr >= config.warmup_instr) {
        windows_open = true;
        clocks.open_window();
        for (std::uint32_t i = 0; i < n; ++i) {
          baselines[i].instructions = models[i].instructions();
          baselines[i].cycles = clocks.clock(i, models[i]);
          baselines[i].mem = port.counters(i);
        }
      }
      continue;
    }

    if (!frozen[core] && models[core].instructions() >=
                             baselines[core].instructions + config.instr_limit) {
      frozen[core] = true;
      --remaining;
      clocks.settle(core);
      const Baseline& base = baselines[core];
      ThreadResult& r = results[core];
      r.benchmark = names[core];
      r.instructions = models[core].instructions() - base.instructions;
      r.cycles = clocks.clock(core, models[core]) - base.cycles;
      r.ipc = r.cycles > 0.0 ? static_cast<double>(r.instructions) / r.cycles : 0.0;
      const HierarchyCounters& now_mem = port.counters(core);
      r.mem.l1_accesses = now_mem.l1_accesses - base.mem.l1_accesses;
      r.mem.l1_misses = now_mem.l1_misses - base.mem.l1_misses;
      r.mem.l2_accesses = now_mem.l2_accesses - base.mem.l2_accesses;
      r.mem.l2_misses = now_mem.l2_misses - base.mem.l2_misses;
    }
  }

  SimResult out;
  out.threads = std::move(results);
  for (const auto& t : out.threads) out.wall_cycles = std::max(out.wall_cycles, t.cycles);
  const auto* ctrl = l2.controller();
  out.repartitions = ctrl ? ctrl->history().size() : 0;
  out.l2_config = l2.config().acronym();
  clocks.finish(out);
  return out;
}

}  // namespace plrupart::sim::internal
