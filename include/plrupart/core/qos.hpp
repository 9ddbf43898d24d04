// QoS-oriented partition selection (after the QoS frameworks the paper cites:
// Iyer et al., Nesbit et al., FlexDCP).
//
// One thread is designated latency-critical with a miss budget expressed as a
// multiple of its full-cache miss count. qos_partition (a CpaConfig::decide
// once bound to its QosTarget) reserves the minimum number of ways meeting
// that budget, then distributes the rest among the remaining threads with
// MinMisses.
#pragma once

#include "plrupart/export.hpp"

#include "plrupart/core/partition.hpp"

namespace plrupart::core {

struct PLRUPART_EXPORT QosTarget {
  std::uint32_t core = 0;
  /// Allowed miss inflation: misses(w) <= factor * misses(A). 1.0 demands the
  /// full-cache miss count; larger values relax the guarantee.
  double factor = 1.1;
};

/// Throws InvariantError when target.factor < 1 or target.core is not a core.
[[nodiscard]] PLRUPART_EXPORT Partition qos_partition(
    const std::vector<MissCurve>& curves, std::uint32_t total_ways, QosTarget target);

/// Fewest ways meeting the budget (capped so every other core keeps >= 1).
[[nodiscard]] PLRUPART_EXPORT std::uint32_t ways_for_budget(const MissCurve& c,
                                                            double factor,
                                                            std::uint32_t cap);

}  // namespace plrupart::core
