// The replay loop: the one implementation of the paper's methodology behind
// every CmpSimulator mode — serial or pipelined, functional or timed.
//
// Threads interleave by local clock (the core with the smallest FUNCTIONAL
// cycle count goes next), measurement windows open for all cores together
// once the slowest has warmed up, and each core freezes its statistics at
// its quota while it keeps running to preserve contention. Two statically
// composed parts vary by mode, and the loop is their whole contract:
//
//  * The L2 port supplies each core's ops and their outcomes. `next(core)`
//    fetches the core's next op with its private-L1 outcome already
//    resolved (`l1_hit`); a fetch that fails comes back with `failed` set,
//    and `rethrow(core)` raises its error. The loop calls it only when it
//    executes that op, so an error on an op the serial order never reaches
//    is never seen. `access(core, op, now, echo)` does the after-L1 half
//    stamped at the core's functional clock and returns the satisfying
//    level, filling `echo`; `counters(core)` reports the core's running
//    HierarchyCounters. Every port must return the same levels for the same
//    op stream — that is what keeps the interleave, and with it every
//    partition decision, identical across modes.
//  * The clocks overlay decides which cycle count the run reports:
//    `on_access(core, op, echo)` sees every access after the functional
//    commit (an L1 hit gets a default echo), `clock(core, model)` is the
//    reported clock, `open_window()` and `settle(core)` run at window open
//    and at a core's freeze, and `finish(out)` adds mode-specific fields to
//    the result. An overlay only ever reads the functional stream; it never
//    feeds back into it, so the timed one (sim/timed_overlay.hpp) may apply
//    its inputs on a helper thread and catch up only where a clock is read.
//
// The argmin orders only the ops with effects outside their own core. An L1
// hit changes only its core (its L1, counters and two clocks), so it commutes
// with every other core's ops. Once the windows are open, each core therefore
// runs ahead, committing its L1 hits in program order, and stops before its
// next significant op: an L1 miss (an L2 access, which may tick the
// controller), the op that reaches its quota (the freeze, whose settle steps
// the timed overlay), a failed fetch, or the op after kRunCap hits. Each core
// then waits at the clock its serial turn for that op would see, so the
// strict-< scan (ties to the lowest index) picks the significant ops in
// exactly the serial order. Before the windows open every op is significant:
// window open reads every core's state at one instant. The L1s, the traces
// and the L1 access counters end up past the serial state; the L2, its
// profilers and controller, and the results match it.
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

/// The most L1 hits a core commits ahead of the interleave in one run: a
/// core whose ops all hit its L1 (a frozen one spinning on a small
/// footprint) still hands an op to the argmin this often.
inline constexpr std::uint32_t kRunCap = 64;

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

  // Each core's next op: fetched, L1 resolved, not yet committed.
  using Op = decltype(port.next(0));
  std::vector<Op> next;
  next.reserve(n);

  // Commit core c's L1 hits in program order, from `op` on, and return its
  // next significant op: an L1 miss, a failed fetch, the op that reaches c's
  // quota, or the op after kRunCap hits. An L1 hit touches only its own
  // core, so the hits commute with every other core's ops and the argmin
  // never needs them.
  const auto run_ahead = [&](std::uint32_t c, Op op) {
    CoreModel& model = models[c];
    // The op that brings c's count to `quota` is its freeze; a frozen core
    // has none.
    const std::uint64_t quota =
        frozen[c] ? std::numeric_limits<std::uint64_t>::max()
                  : baselines[c].instructions + config.instr_limit;
    for (std::uint32_t k = 0; k < kRunCap; ++k) {
      // A failed fetch carries no hit.
      if (!op.l1_hit || model.instructions() + op.gap_instrs + 1 >= quota) break;
      model.commit_gap(op.gap_instrs);
      const auto now = static_cast<std::uint64_t>(model.cycles());
      L2Echo echo;
      model.commit_mem(port.access(c, op, now, echo));
      clocks.on_access(c, op, L2Echo{});
      op = port.next(c);
    }
    return op;
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    next.push_back(windows_open ? run_ahead(i, port.next(i)) : port.next(i));
  }

  while (remaining > 0) {
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

    const Op op = next[core];
    if (op.failed) port.rethrow(core);
    models[core].commit_gap(op.gap_instrs);
    const auto now = static_cast<std::uint64_t>(models[core].cycles());
    L2Echo echo;
    const AccessLevel level = port.access(core, op, now, echo);
    models[core].commit_mem(level);
    clocks.on_access(core, op, echo);

    if (!windows_open) {
      next[core] = port.next(core);
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
        for (std::uint32_t i = 0; i < n; ++i) next[i] = run_ahead(i, next[i]);
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
    next[core] = run_ahead(core, port.next(core));
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
