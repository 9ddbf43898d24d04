#include "plrupart/core/controller.hpp"

#include <variant>

#include "plrupart/core/static_policy.hpp"
#include "plrupart/core/tree_rounding.hpp"

namespace plrupart::core {

IntervalController::IntervalController(std::uint64_t interval_cycles, DecideFn decide,
                                       std::vector<Profiler> profilers,
                                       cache::SetAssocCache& l2, double hysteresis,
                                       bool bt_strict_pow2)
    : interval_(interval_cycles),
      total_ways_(l2.geometry().associativity),
      decide_(std::move(decide)),
      profilers_(std::move(profilers)),
      l2_(&l2),
      hysteresis_(hysteresis),
      bt_strict_pow2_(bt_strict_pow2),
      next_boundary_(interval_cycles) {
  PLRUPART_ASSERT(interval_ > 0);
  PLRUPART_ASSERT(decide_ != nullptr);
  PLRUPART_ASSERT(profilers_.size() == l2.num_cores());
  PLRUPART_ASSERT(hysteresis_ >= 0.0 && hysteresis_ < 1.0);
  // Until the first interval completes there is no profile; start even.
  current_ = even_split(static_cast<std::uint32_t>(profilers_.size()), total_ways_);
  enforce();
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
  for (const Profiler& p : profilers_) curves.push_back(p.curve());

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
  enforce();
  history_.push_back(RepartitionEvent{.cycle = now_cycles, .partition = current_});

  for (Profiler& p : profilers_) p.decay();
}

void IntervalController::enforce() {
  const auto cores = static_cast<std::uint32_t>(current_.size());
  switch (l2_->enforcement()) {
    case cache::EnforcementMode::kNone:
      return;
    case cache::EnforcementMode::kOwnerCounters:
      for (std::uint32_t i = 0; i < cores; ++i) l2_->set_way_quota(i, current_[i]);
      return;
    case cache::EnforcementMode::kWayMasks: {
      if (l2_->replacement() == cache::ReplacementKind::kTreePlru && bt_strict_pow2_) {
        // Strict hardware mode: snap to power-of-two blocks a force-vector
        // pair can express.
        const TreeEnforcement enf = make_tree_enforcement(
            std::get<cache::TreePlru>(l2_->policy()),
            round_to_pow2_partition(current_, total_ways_), total_ways_);
        for (std::uint32_t i = 0; i < cores; ++i) l2_->set_way_mask(i, enf.masks[i]);
        return;
      }
      const auto masks = contiguous_masks(current_);
      for (std::uint32_t i = 0; i < cores; ++i) l2_->set_way_mask(i, masks[i]);
      return;
    }
  }
}

}  // namespace plrupart::core
