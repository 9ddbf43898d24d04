#include "plrupart/sim/cmp_simulator.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "common/parallel.hpp"
#include "sim/front_end.hpp"
#include "sim/replay_loop.hpp"
#include "sim/timed_overlay.hpp"

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
  const BusyThreads replay_loop(1);

  std::vector<std::string> names;
  names.reserve(traces_.size());
  for (const auto& t : traces_) names.push_back(t->name());
  const bool timed = config_.timing_mode == TimingMode::kTimed;
  auto run_with = [&](auto& port) {
    if (timed) {
      internal::TimedOverlay clocks(config_);
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
  internal::FrontEnd front(traces_, hierarchy_, producers);
  PipelinePort port(front, hierarchy_);
  SimResult out = run_with(port);
  out.sim_shards = producers;
  return out;
}

}  // namespace plrupart::sim
