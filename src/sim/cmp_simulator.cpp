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
  // Every op comes alone (run 0), so the loop never asks for a run.
  static const std::uint8_t* run_gaps(std::uint32_t /*core*/) noexcept { return nullptr; }
  static void commit_run(std::uint32_t /*core*/, std::uint32_t /*hits*/) noexcept {}
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
/// L1 outcome attached, L1 hits mostly in runs, and only the after-L1 half
/// of each access runs here.
class PipelinePort {
 public:
  PipelinePort(internal::FrontEnd& front, MemoryHierarchy& hierarchy)
      : front_(front), hierarchy_(hierarchy) {}

  internal::OpRecord next(std::uint32_t core) { return front_.pop(core); }
  [[noreturn]] void rethrow(std::uint32_t core) const { front_.rethrow(core); }
  [[nodiscard]] const std::uint8_t* run_gaps(std::uint32_t core) const {
    return front_.run_gaps(core);
  }
  void commit_run(std::uint32_t core, std::uint32_t hits) {
    front_.skip_run(core, hits);
    hierarchy_.count_l1_hits(core, hits);
  }
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

/// Below this many instructions per core (warmup included), producers cost
/// more to start and join than they save: on a 4-vCPU x86 VM a run of 2 or
/// 4 cores breaks even about here, and each run of 1 instruction took about
/// 0.2 ms longer with them.
constexpr std::uint64_t kMinPipelinedInstr = 10'000;

/// The producers `config` runs with; none means the direct port. An explicit
/// sim_threads K > 1 takes min(K, cores) whatever the load. 0 reserves them
/// from the threads the process leaves free, one more staying free for a
/// timed run's overlay helper. The busiest producer owns ceil(cores / K)
/// cores, so K is the fewest producers that keep that as low as the free
/// threads can: with three free, a 4-core run takes 2 (not a 2/1/1 split)
/// and an 8-core run 3. Fewer than 2 free threads, or a run shorter than
/// kMinPipelinedInstr, take none.
BusyThreads reserve_producers(const SimConfig& config, std::size_t cores) {
  if (config.sim_threads != 0) {
    return BusyThreads(config.sim_threads == 1
                           ? 0
                           : std::min<std::size_t>(config.sim_threads, cores));
  }
  if (config.warmup_instr + config.instr_limit < kMinPipelinedInstr) {
    return BusyThreads(0);
  }
  BusyThreads budget = BusyThreads::try_reserve(
      cores, config.timing_mode == TimingMode::kTimed ? 1 : 0);
  const std::size_t n = budget.held();
  const std::size_t per_producer = n < 2 ? 0 : (cores + n - 1) / n;
  budget.shrink_to(n < 2 ? 0 : (cores + per_producer - 1) / per_producer);
  return budget;
}

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
  const BusyThreads replay_loop = BusyThreads::this_thread();

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

  BusyThreads producers = reserve_producers(config_, traces_.size());
  if (producers.held() == 0) {
    DirectPort port(traces_, hierarchy_);
    return run_with(port);
  }
  const auto shards = static_cast<std::uint32_t>(producers.held());
  internal::FrontEnd front(traces_, hierarchy_, std::move(producers));
  PipelinePort port(front, hierarchy_);
  SimResult out = run_with(port);
  out.sim_shards = shards;
  return out;
}

}  // namespace plrupart::sim
