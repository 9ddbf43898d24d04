#include "plrupart/core/controller.hpp"

#include "plrupart/core/static_policy.hpp"

namespace plrupart::core {

IntervalController::IntervalController(std::uint64_t interval_cycles,
                                       std::uint32_t total_ways, DecideFn decide,
                                       std::vector<Profiler*> profilers, ApplyFn apply,
                                       double hysteresis)
    : interval_(interval_cycles),
      total_ways_(total_ways),
      decide_(std::move(decide)),
      profilers_(std::move(profilers)),
      apply_(std::move(apply)),
      hysteresis_(hysteresis),
      next_boundary_(interval_cycles) {
  PLRUPART_ASSERT(interval_ > 0);
  PLRUPART_ASSERT(decide_ != nullptr);
  PLRUPART_ASSERT(!profilers_.empty());
  PLRUPART_ASSERT(apply_ != nullptr);
  PLRUPART_ASSERT(hysteresis_ >= 0.0 && hysteresis_ < 1.0);
  // Until the first interval completes there is no profile; start even.
  current_ = even_split(static_cast<std::uint32_t>(profilers_.size()), total_ways_);
  apply_(current_);
}

bool IntervalController::tick(std::uint64_t now_cycles) {
  if (!due(now_cycles)) return false;
  repartition_now(now_cycles);
  // Re-arm relative to the boundary grid, skipping intervals the simulator
  // jumped over (a long stall can cross several boundaries at once).
  while (next_boundary_ <= now_cycles) next_boundary_ += interval_;
  return true;
}

void IntervalController::repartition_now(std::uint64_t now_cycles) {
  std::vector<MissCurve> curves;
  curves.reserve(profilers_.size());
  for (const Profiler* p : profilers_) curves.push_back(p->curve());

  Partition candidate = decide_(curves, total_ways_);
  validate_partition(candidate, total_ways_);
  if (hysteresis_ > 0.0 && candidate != current_) {
    // Keep the standing partition unless the candidate's predicted misses
    // undercut it decisively (see constructor comment).
    const double old_cost = partition_cost(curves, current_);
    const double new_cost = partition_cost(curves, candidate);
    if (new_cost >= old_cost * (1.0 - hysteresis_)) candidate = current_;
  }
  current_ = std::move(candidate);
  apply_(current_);
  history_.push_back(RepartitionEvent{.cycle = now_cycles, .partition = current_});

  for (Profiler* p : profilers_) p->decay();
}

}  // namespace plrupart::core
