#include "plrupart/cache/tree_plru.hpp"

namespace plrupart::cache {

TreePlru::TreePlru(const Geometry& geo)
    : PolicyShape(geo), levels_(ilog2_exact(geo.associativity)) {
  PLRUPART_ASSERT_MSG(ways_ >= 2, "tree PLRU needs associativity >= 2");
  tree_.resize(sets_, 0);
  path_node_mask_.resize(ways_, 0);
  path_node_value_.resize(ways_, 0);
  for (std::uint32_t way = 0; way < ways_; ++way) {
    std::uint32_t node = 0;
    for (std::uint32_t level = 0; level < levels_; ++level) {
      const std::uint32_t dir = direction_bit(way, level);
      path_node_mask_[way] |= std::uint64_t{1} << node;
      if (dir == 0) path_node_value_[way] |= std::uint64_t{1} << node;
      node = 2 * node + 1 + dir;
    }
  }
}

void TreePlru::reset() {
  for (auto& t : tree_) t = 0;
}

std::uint32_t TreePlru::choose_victim_with_vectors(std::uint64_t set,
                                                   const ForceVectors& force) {
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t span = ways_;
  for (std::uint32_t level = 0; level < levels_; ++level) {
    PLRUPART_ASSERT_MSG(!(force.forces_up(level) && force.forces_down(level)),
                        "up and down forced at the same tree level");
    const std::uint32_t half = span / 2;
    std::uint32_t dir;
    if (force.forces_up(level)) {
      dir = 0;  // overwrite the BT bit with 0: search the upper subtree
    } else if (force.forces_down(level)) {
      dir = 1;  // overwrite with 1: search the lower subtree
    } else {
      dir = node_bit(set, node) ? 1U : 0U;
    }
    node = 2 * node + 1 + dir;
    lo += dir * half;
    span = half;
  }
  return lo;
}

std::optional<ForceVectors> TreePlru::derive_force_vectors(WayMask mask) const {
  mask &= all_ways();
  if (mask == 0) return std::nullopt;
  const std::uint32_t count = mask_count(mask);
  const std::uint32_t first = mask_first(mask);
  if (!is_pow2(count)) return std::nullopt;
  if (mask != way_range_mask(first, count)) return std::nullopt;  // not contiguous
  if (first % count != 0) return std::nullopt;                    // not aligned
  const std::uint32_t forced_levels = levels_ - ilog2_exact(count);
  const std::uint32_t prefix = first / count;  // block address, MSB-first path
  ForceVectors fv;
  for (std::uint32_t level = 0; level < forced_levels; ++level) {
    const std::uint32_t dir = (prefix >> (forced_levels - 1 - level)) & 1U;
    if (dir == 0)
      fv.up |= (1U << level);
    else
      fv.down |= (1U << level);
  }
  return fv;
}

WayMask TreePlru::reachable_ways(const ForceVectors& force) const {
  std::uint32_t lo = 0;
  std::uint32_t span = ways_;
  for (std::uint32_t level = 0; level < levels_; ++level) {
    const std::uint32_t half = span / 2;
    if (force.forces_up(level)) {
      span = half;
    } else if (force.forces_down(level)) {
      lo += half;
      span = half;
    } else {
      // An unforced level below a forced one widens the reachable set to the
      // whole remaining subtree; deeper force bits would only matter if every
      // level above were forced too. The paper's partitions force a prefix.
      break;
    }
  }
  return way_range_mask(lo, span);
}

}  // namespace plrupart::cache
