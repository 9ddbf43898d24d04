// Fairness-oriented partition selection (after Kim/Chandra/Solihin [11] and
// FlexDCP [14], which the paper cites as alternative target metrics).
//
// fair_partition (a CpaConfig::decide) equalizes the predicted slowdown proxy
// of every thread: the ratio of misses with its assigned ways to misses with
// the full cache. It greedily hands the next way to the currently worst-off
// thread.
#pragma once

#include "plrupart/export.hpp"

#include "plrupart/core/partition.hpp"

namespace plrupart::core {

[[nodiscard]] PLRUPART_EXPORT Partition fair_partition(
    const std::vector<MissCurve>& curves, std::uint32_t total_ways);

/// Slowdown proxy for one thread at w ways: misses(w) relative to the best it
/// could do with the whole cache (+1 smoothing keeps zero-miss threads
/// comparable).
[[nodiscard]] inline double slowdown_proxy(const MissCurve& c, std::uint32_t ways) {
  return (c.misses(ways) + 1.0) / (c.misses(c.max_ways()) + 1.0);
}

}  // namespace plrupart::core
