#include "plrupart/sim/cmp_simulator.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "common/parallel.hpp"
#include "sim/front_end.hpp"
#include "sim/replay_loop.hpp"

namespace plrupart::sim {

namespace {

/// The direct L2 port: ops come straight from the trace sources, their L1
/// resolved on the way, and the after-L1 half runs through the real
/// MemoryHierarchy. A source error is kept with its op, so it surfaces only if
/// the replay executes that op.
class DirectPort {
 public:
  DirectPort(const std::vector<std::unique_ptr<TraceSource>>& traces,
             MemoryHierarchy& hierarchy)
      : traces_(traces), hierarchy_(hierarchy), errors_(traces.size()) {}

  internal::OpRecord next(std::uint32_t core) {
    try {
      const MemOp op = traces_[core]->next();
      return {.addr = op.addr,
              .gap_instrs = op.gap_instrs,
              .write = op.write,
              .l1_hit = hierarchy_.access_l1(core, op.addr)};
    } catch (...) {
      errors_[core] = std::current_exception();
      return {.failed = true};
    }
  }
  [[noreturn]] void rethrow(std::uint32_t core) const {
    std::rethrow_exception(errors_[core]);
  }
  AccessLevel access(std::uint32_t core, const internal::OpRecord& op, std::uint64_t now,
                     L2Echo& echo) {
    return hierarchy_.access_after_l1(core, op.addr, op.write, op.l1_hit, now, echo);
  }
  [[nodiscard]] const HierarchyCounters& counters(std::uint32_t core) const {
    return hierarchy_.counters(core);
  }

 private:
  const std::vector<std::unique_ptr<TraceSource>>& traces_;
  MemoryHierarchy& hierarchy_;
  std::vector<std::exception_ptr> errors_;  ///< per core: why its last fetch failed
};

/// The pipelined L2 port: ops arrive from the front-end producers with their
/// L1 outcome attached, and only the after-L1 half of each access runs here.
class PipelinePort {
 public:
  PipelinePort(internal::FrontEnd& front, MemoryHierarchy& hierarchy)
      : front_(front), hierarchy_(hierarchy) {}

  internal::OpRecord next(std::uint32_t core) { return front_.pop(core); }
  [[noreturn]] void rethrow(std::uint32_t core) const { front_.rethrow(core); }
  AccessLevel access(std::uint32_t core, const internal::OpRecord& op, std::uint64_t now,
                     L2Echo& echo) {
    return hierarchy_.access_after_l1(core, op.addr, op.write, op.l1_hit, now, echo);
  }
  [[nodiscard]] const HierarchyCounters& counters(std::uint32_t core) const {
    return hierarchy_.counters(core);
  }

 private:
  internal::FrontEnd& front_;
  MemoryHierarchy& hierarchy_;
};

/// The timed overlay: a second per-core clock charges memory latency from the
/// event-driven MSHR/writeback/banked-DRAM model (TimedMemory) instead of the
/// fixed penalties, and those clocks are what the SimResult reports.
///
/// A core keeps at most one L2 transaction in flight (its `outstanding`
/// ticket). L1 hits retire under it — hit-under-miss — and the fill is awaited
/// lazily at the core's next L2-reaching access, charging only the exposed
/// fraction of whatever latency is still uncovered at that point. Cross-core
/// concurrency is real: many cores' fills occupy MSHRs and DRAM banks at once,
/// which is where queueing, coalescing, and bank conflicts come from.
class TimedClocks {
 public:
  explicit TimedClocks(const SimConfig& config)
      : config_(config),
        memory_(config.timed, config.hierarchy.l2.geometry),
        cores_(config.cores.size()) {}

  [[nodiscard]] double clock(std::uint32_t core, const CoreModel& /*model*/) const {
    return cores_[core].cycles;
  }

  /// Same committed instructions as the functional clock, latency from the model.
  template <class Op>
  void on_access(std::uint32_t core, const Op& op, const L2Echo& echo) {
    TimedCore& tc = cores_[core];
    const CoreParams& cp = config_.cores[core];
    tc.cycles += (static_cast<double>(op.gap_instrs) + 1.0) / cp.base_ipc;
    if (!echo.reached_l2) return;
    // One demand transaction in flight per core: the previous one must
    // retire before the next issues (L1 hits in between already proceeded).
    settle(core);
    const auto t_issue = static_cast<std::uint64_t>(tc.cycles);
    const cache::Addr line = config_.hierarchy.l2.geometry.line_addr(op.addr);
    if (echo.hit) {
      const auto tk = memory_.hit(t_issue, line, echo.way, op.write);
      if (tk.valid) {
        // Fill still in flight: this "hit" waits on the fill, not the array.
        tc.outstanding = tk;
        tc.has_outstanding = true;
      } else {
        tc.cycles += static_cast<double>(config_.timed.l2_hit_cycles) * cp.stall_fraction;
      }
    } else {
      tc.outstanding = memory_.miss(t_issue, line, echo.way, op.write, echo.evicted_valid,
                                    echo.evicted_line);
      tc.has_outstanding = true;
    }
  }

  /// Settle every in-flight transaction so the measured window starts from a
  /// clean overlay, then restart peak tracking.
  void open_window() {
    for (std::uint32_t i = 0; i < cores_.size(); ++i) settle(i);
    memory_.mark();
    stats_base_ = memory_.stats();
  }

  /// Await core's in-flight L2 transaction and charge the exposed remainder
  /// (at a freeze: the quota's last miss belongs to the window).
  void settle(std::uint32_t core) {
    TimedCore& tc = cores_[core];
    if (!tc.has_outstanding) return;
    const auto done = static_cast<double>(memory_.retire(tc.outstanding));
    tc.has_outstanding = false;
    if (done > tc.cycles) {
      tc.cycles += (done - tc.cycles) * config_.cores[core].stall_fraction;
    }
  }

  void finish(SimResult& out) const {
    out.timing = TimingMode::kTimed;
    out.timed = memory_.stats().delta_since(stats_base_);
  }

 private:
  struct TimedCore {
    double cycles = 0.0;  ///< the timed clock (what this mode reports)
    TimedMemory::Ticket outstanding{};
    bool has_outstanding = false;
  };

  const SimConfig& config_;
  TimedMemory memory_;
  std::vector<TimedCore> cores_;
  TimedStats stats_base_;  ///< snapshot of the overlay counters at window open
};

}  // namespace

CmpSimulator::CmpSimulator(SimConfig config, std::vector<std::unique_ptr<TraceSource>> traces)
    : config_(std::move(config)), traces_(std::move(traces)), hierarchy_(config_.hierarchy) {
  const std::uint32_t cores = config_.hierarchy.l2.num_cores;
  PLRUPART_ASSERT_MSG(traces_.size() == cores, "one trace per core required");
  PLRUPART_ASSERT(config_.instr_limit > 0);
  if (config_.cores.size() == 1 && cores > 1) {
    config_.cores.assign(cores, config_.cores.front());
  }
  PLRUPART_ASSERT_MSG(config_.cores.size() == cores, "one CoreParams per core required");
}

SimResult CmpSimulator::run() {
  // Explicit call-once contract: the hierarchy (caches, profilers, the
  // controller's partition history) is consumed by the first run, so a second
  // run would silently produce warm-state garbage. Fail loudly instead.
  if (ran_) {
    throw InvariantError(
        "CmpSimulator::run may be called once; construct a fresh simulator "
        "for another run");
  }
  ran_ = true;

  std::vector<std::string> names;
  names.reserve(traces_.size());
  for (const auto& t : traces_) names.push_back(t->name());
  const bool timed = config_.timing_mode == TimingMode::kTimed;
  auto run_with = [&](auto& port) {
    if (timed) {
      TimedClocks clocks(config_);
      return internal::replay(config_, names, hierarchy_.l2(), port, clocks);
    }
    internal::FunctionalClocks clocks;
    return internal::replay(config_, names, hierarchy_.l2(), port, clocks);
  };

  const std::size_t want =
      config_.sim_threads == 0 ? default_parallelism() : config_.sim_threads;
  if (want <= 1) {
    DirectPort port(traces_, hierarchy_);
    return run_with(port);
  }
  const auto producers = static_cast<std::uint32_t>(std::min(want, traces_.size()));
  internal::FrontEnd front(traces_, hierarchy_, producers, config_.faults.get());
  PipelinePort port(front, hierarchy_);
  SimResult out = run_with(port);
  out.sim_shards = producers;
  return out;
}

}  // namespace plrupart::sim
