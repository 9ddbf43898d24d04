// Way partitions and the one exact allocation DP every separable policy uses.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "plrupart/common/assert.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/core/miss_curve.hpp"

namespace plrupart::core {

/// ways[i] = number of L2 ways assigned to core i. A valid partition gives
/// every core at least one way and distributes exactly the associativity.
using Partition = std::vector<std::uint32_t>;

inline void validate_partition(const Partition& p, std::uint32_t total_ways) {
  PLRUPART_ASSERT_MSG(!p.empty(), "empty partition");
  std::uint32_t sum = 0;
  for (const std::uint32_t w : p) {
    PLRUPART_ASSERT_MSG(w >= 1, "every core needs at least one way");
    sum += w;
  }
  PLRUPART_ASSERT_MSG(sum == total_ways, "partition must distribute all ways");
}

/// Contiguous mask placement in core order: core 0 gets ways [0, p[0]),
/// core 1 the next p[1] ways, and so on. Contiguity keeps the masks
/// BT-traversal friendly (see cache::TreePlru).
[[nodiscard]] inline std::vector<WayMask> contiguous_masks(const Partition& p) {
  std::vector<WayMask> masks;
  masks.reserve(p.size());
  std::uint32_t first = 0;
  for (const std::uint32_t w : p) {
    masks.push_back(way_range_mask(first, w));
    first += w;
  }
  return masks;
}

/// Predicted total misses of a partition under the given curves.
[[nodiscard]] inline double partition_cost(const std::vector<MissCurve>& curves,
                                           const Partition& p) {
  PLRUPART_ASSERT(curves.size() == p.size());
  double total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) total += curves[i].misses(p[i]);
  return total;
}

/// The split of `total_ways` among `cores` (at least one way each) that
/// minimizes sum_i cost(i, w_i): an exact DP, O(cores * total_ways^2), over
/// any separable objective. `pow2_only` restricts every w_i to a power of two.
/// Ties go to the lexicographically smallest split. Throws InvariantError when
/// every admissible split costs +inf.
[[nodiscard]] PLRUPART_EXPORT Partition min_cost_partition(
    std::uint32_t cores, std::uint32_t total_ways,
    const std::function<double(std::uint32_t core, std::uint32_t ways)>& cost,
    bool pow2_only = false);

}  // namespace plrupart::core
