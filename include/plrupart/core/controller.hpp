// Interval controller: the dynamic half of a dynamic CPA.
//
// Divides execution into fixed cycle intervals (paper: 1M cycles). At each
// boundary it reads every thread's (e)SDH into a miss curve, asks the
// decision function for the next partition, enforces it on the L2 (way masks
// or owner-counter quotas), and decays the SDHs.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <functional>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/core/partition.hpp"
#include "plrupart/core/profiler.hpp"

namespace plrupart::core {

struct PLRUPART_EXPORT RepartitionEvent {
  std::uint64_t cycle = 0;
  Partition partition;
};

class PLRUPART_EXPORT IntervalController {
 public:
  /// Next partition from one miss curve per core (e.g. min_misses_optimal).
  using DecideFn =
      std::function<Partition(const std::vector<MissCurve>&, std::uint32_t total_ways)>;

  /// Owns one profiler per core and enforces every partition on `l2` (not
  /// owned). `bt_strict_pow2` snaps a tree-PLRU L2's partitions to
  /// power-of-two blocks a force-vector pair can express.
  /// `hysteresis` damps repartition oscillation: a candidate partition
  /// replaces the current one only when its predicted miss total undercuts
  /// the current partition's (under the same fresh curves) by more than this
  /// fraction. Mask-based enforcement pays a working-set rebuild on every
  /// partition change, so flip-flopping decisions are costly; quota-based
  /// enforcement is naturally lazy and barely notices. 0 disables damping.
  IntervalController(std::uint64_t interval_cycles, DecideFn decide,
                     std::vector<Profiler> profilers, cache::SetAssocCache& l2,
                     double hysteresis = 0.0, bool bt_strict_pow2 = false);

  /// Advance controller time. Fires at most one repartition per call (the
  /// simulator's cycle stream advances in sub-interval steps). Returns true
  /// if a repartition happened.
  bool tick(std::uint64_t now_cycles);

  /// Would tick(now_cycles) repartition? The one owner of the boundary rule.
  [[nodiscard]] bool due(std::uint64_t now_cycles) const noexcept {
    return now_cycles >= next_boundary_;
  }

  [[nodiscard]] const Partition& current() const noexcept { return current_; }
  [[nodiscard]] const std::vector<RepartitionEvent>& history() const noexcept {
    return history_;
  }
  [[nodiscard]] std::uint64_t interval_cycles() const noexcept { return interval_; }
  [[nodiscard]] const std::vector<Profiler>& profilers() const noexcept {
    return profilers_;
  }
  [[nodiscard]] Profiler& profiler_mut(cache::CoreId core) {
    PLRUPART_ASSERT(core < profilers_.size());
    return profilers_[core];
  }

  /// Immediate repartition, regardless of the boundary (used at time zero and
  /// by tests).
  void repartition_now(std::uint64_t now_cycles);

 private:
  friend class PartitionedCacheSystem;  // re-seats l2_ when the system copies or moves
  void enforce();

  std::uint64_t interval_;
  std::uint32_t total_ways_;
  DecideFn decide_;
  std::vector<Profiler> profilers_;
  cache::SetAssocCache* l2_;
  double hysteresis_;
  bool bt_strict_pow2_;
  std::uint64_t next_boundary_;
  Partition current_;
  std::vector<RepartitionEvent> history_;
};

}  // namespace plrupart::core
