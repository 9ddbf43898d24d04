// Interval controller: the dynamic half of a dynamic CPA.
//
// Divides execution into fixed cycle intervals (paper: 1M cycles). At each
// boundary it reads every thread's (e)SDH into a miss curve, asks the
// partition policy for the next partition, hands it to the enforcement
// callback, and decays the SDHs.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "plrupart/core/partition.hpp"
#include "plrupart/core/profiler.hpp"

namespace plrupart::core {

struct PLRUPART_EXPORT RepartitionEvent {
  std::uint64_t cycle = 0;
  Partition partition;
};

class PLRUPART_EXPORT IntervalController {
 public:
  using ApplyFn = std::function<void(const Partition&)>;

  /// `hysteresis` damps repartition oscillation: a candidate partition
  /// replaces the current one only when its predicted miss total undercuts
  /// the current partition's (under the same fresh curves) by more than this
  /// fraction. Mask-based enforcement pays a working-set rebuild on every
  /// partition change, so flip-flopping decisions are costly; quota-based
  /// enforcement is naturally lazy and barely notices. 0 disables damping.
  IntervalController(std::uint64_t interval_cycles, std::uint32_t total_ways,
                     std::unique_ptr<PartitionPolicy> policy,
                     std::vector<Profiler*> profilers, ApplyFn apply,
                     double hysteresis = 0.0);

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
  [[nodiscard]] const PartitionPolicy& policy() const noexcept { return *policy_; }

  /// Immediate repartition, regardless of the boundary (used at time zero and
  /// by tests).
  void repartition_now(std::uint64_t now_cycles);

 private:
  std::uint64_t interval_;
  std::uint32_t total_ways_;
  std::unique_ptr<PartitionPolicy> policy_;
  std::vector<Profiler*> profilers_;
  ApplyFn apply_;
  double hysteresis_;
  std::uint64_t next_boundary_;
  Partition current_;
  std::vector<RepartitionEvent> history_;
};

}  // namespace plrupart::core
