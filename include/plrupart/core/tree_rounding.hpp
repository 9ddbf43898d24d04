// Tree-feasible partitions for strict BT force-vector enforcement.
//
// A per-core up/down vector pair (paper Fig. 5) confines a core to a single
// aligned power-of-two block of ways. A partition is *strictly* enforceable
// with vectors only when every allocation is a power of two and the multiset
// of allocations tiles the associativity (Kraft equality: sum 2^{q_i} = A).
//
// This module provides
//   * round_to_pow2_partition — snap an arbitrary MinMisses partition to the
//     nearest feasible power-of-two partition (floor, then double the largest
//     deficits until the budget is exactly consumed);
//   * place_pow2_blocks       — buddy-style aligned placement of the blocks;
//   * min_misses_tree         — MinMisses restricted to power-of-two
//     allocations (min_cost_partition with pow2_only), the "native tree"
//     alternative to rounding (a CpaConfig::decide).
//
// The default M-BT configuration instead uses contiguous masks with
// mask-guided traversal (see cache::TreePlru), which needs none of this;
// strict mode exists for the faithful-hardware ablation.
#pragma once

#include "plrupart/export.hpp"

#include "plrupart/cache/tree_plru.hpp"
#include "plrupart/core/partition.hpp"

namespace plrupart::core {

[[nodiscard]] PLRUPART_EXPORT Partition round_to_pow2_partition(const Partition& ideal,
                                                std::uint32_t total_ways);

/// Place power-of-two allocations as disjoint aligned blocks covering
/// [0, total_ways). Returns per-core way masks in core order.
[[nodiscard]] PLRUPART_EXPORT std::vector<WayMask> place_pow2_blocks(const Partition& pow2_sizes,
                                                     std::uint32_t total_ways);

/// MinMisses restricted to vector-expressible (power-of-two) allocations: the
/// "native tree" alternative to rounding an unrestricted decision.
[[nodiscard]] PLRUPART_EXPORT Partition min_misses_tree(const std::vector<MissCurve>& curves,
                                        std::uint32_t total_ways);

/// Convenience: masks + force vectors for a strict-BT partition.
struct PLRUPART_EXPORT TreeEnforcement {
  std::vector<WayMask> masks;
  std::vector<cache::ForceVectors> vectors;
};

[[nodiscard]] PLRUPART_EXPORT TreeEnforcement make_tree_enforcement(const cache::TreePlru& tree,
                                                    const Partition& pow2_sizes,
                                                    std::uint32_t total_ways);

}  // namespace plrupart::core
