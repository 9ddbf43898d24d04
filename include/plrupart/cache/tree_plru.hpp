// Binary-Tree pseudo-LRU (the IBM scheme of the paper / US patent 7,069,390).
//
// Each set carries A-1 tree bits laid out as an implicit heap: node 0 is the
// root, node i has children 2i+1 ("upper" subtree = lower way indices) and
// 2i+2 ("lower" subtree = higher way indices). A node bit of 1 means the MRU
// line is in the upper subtree, so victim search descends toward the *other*
// side: bit 0 -> upper child, bit 1 -> lower child.
//
// Partition enforcement (paper Fig. 5) adds per-core up/down force vectors of
// log2(A) bits each: at tree level l, up[l] overrides the node bit with 0
// (search the upper subtree), down[l] overrides it with 1. A force-vector pair
// confines a core to one aligned power-of-two block of ways. The library also
// provides mask-guided traversal — at each node, if only one subtree
// intersects the allowed mask, descend there — which is equivalent to the
// vectors whenever the mask is an aligned power-of-two block (tested), and
// generalizes them to arbitrary contiguous masks.
//
// The per-access methods are defined inline so SetAssocCache, which holds the
// policy by value in a variant, inlines them into its access path without LTO;
// the unconstrained victim walk is a branchless descent over the packed tree
// word.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <optional>
#include <vector>

#include "plrupart/cache/replacement.hpp"

namespace plrupart::cache {

/// Per-core force vectors for BT partition enforcement. Bit l (from the root,
/// l = 0) of `up`/`down` forces traversal at level l. up and down must never
/// both be set at a level.
struct PLRUPART_EXPORT ForceVectors {
  std::uint32_t up = 0;
  std::uint32_t down = 0;

  [[nodiscard]] bool forces_up(std::uint32_t level) const noexcept {
    return (up >> level) & 1U;
  }
  [[nodiscard]] bool forces_down(std::uint32_t level) const noexcept {
    return (down >> level) & 1U;
  }

  friend constexpr bool operator==(const ForceVectors&, const ForceVectors&) = default;
};

class PLRUPART_EXPORT TreePlru final : public PolicyShape {
 public:
  explicit TreePlru(const Geometry& geo);

  void on_hit(std::uint64_t set, std::uint32_t way, WayMask /*allowed*/) {
    promote(set, way);
  }
  void on_fill(std::uint64_t set, std::uint32_t way, WayMask /*allowed*/) {
    promote(set, way);
  }

  /// Mask-guided traversal (see file comment). The full-mask case — every
  /// access of an unpartitioned cache and every ATD probe — is a branchless
  /// walk steered only by the tree bits.
  [[nodiscard]] std::uint32_t choose_victim(std::uint64_t set, WayMask allowed) {
    allowed &= all_ways();
    PLRUPART_ASSERT(allowed != 0);
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t span = ways_;
    if (allowed == all_ways()) {
      // Both subtrees always intersect a full mask, so the walk reduces to
      // reading one tree bit per level.
      const std::uint64_t tree = tree_[set];
      for (std::uint32_t level = 0; level < levels_; ++level) {
        const auto dir = static_cast<std::uint32_t>((tree >> node) & 1U);
        node = 2 * node + 1 + dir;
        span /= 2;
        lo += dir * span;
      }
      return lo;
    }
    for (std::uint32_t level = 0; level < levels_; ++level) {
      const std::uint32_t half = span / 2;
      const WayMask upper = way_range_mask(lo, half) & allowed;
      const WayMask lower = way_range_mask(lo + half, half) & allowed;
      std::uint32_t dir;
      if (upper == 0) {
        dir = 1;  // nothing allowed above: forced down
      } else if (lower == 0) {
        dir = 0;  // forced up
      } else {
        dir = node_bit(set, node) ? 1U : 0U;
      }
      node = 2 * node + 1 + dir;
      lo += dir * half;
      span = half;
    }
    PLRUPART_ASSERT(mask_test(allowed, lo));
    return lo;
  }

  /// Faithful paper enforcement: traversal steered only by the force vectors.
  [[nodiscard]] std::uint32_t choose_victim_with_vectors(std::uint64_t set,
                                                         const ForceVectors& force);

  /// Paper §III-B profiling: estimated stack position
  ///   A − numeric_value(ID(way) XOR path-bits(way)),
  /// where ID(way) is produced by the way-number decoder (way bits MSB-first).
  [[nodiscard]] StackEstimate estimate_position(std::uint64_t set,
                                                std::uint32_t way) const {
    const std::uint32_t x = id_bits(way) ^ path_bits(set, way);
    const std::uint32_t est = ways_ - x;  // 1 = MRU .. A = pseudo-LRU victim
    return StackEstimate{.lo = est, .hi = est, .point = est};
  }

  void reset();

  /// The decoder of paper Fig. 4(c): ID bits for `way`, packed with the root
  /// level in the most significant of log2(A) bits.
  [[nodiscard]] std::uint32_t id_bits(std::uint32_t way) const {
    // The bit values that would make `way` the victim: traversal follows
    // bit==0 upward and bit==1 downward, so the required bit at each level is
    // exactly the way's direction bit. Packed root-first means this is just
    // the way number itself — the decoder of Fig. 4(c).
    PLRUPART_ASSERT(way < ways_);
    return way;
  }

  /// Current tree-path bits of `way`, packed root-first (test/profiler hook).
  [[nodiscard]] std::uint32_t path_bits(std::uint64_t set, std::uint32_t way) const {
    PLRUPART_ASSERT(way < ways_);
    const std::uint64_t tree = tree_[set];
    std::uint32_t bits = 0;
    std::uint32_t node = 0;
    for (std::uint32_t level = 0; level < levels_; ++level) {
      bits = (bits << 1) | static_cast<std::uint32_t>((tree >> node) & 1U);
      const std::uint32_t dir = direction_bit(way, level);
      node = 2 * node + 1 + dir;
    }
    return bits;
  }

  [[nodiscard]] std::uint32_t levels() const noexcept { return levels_; }

  /// Force vectors confining a core to `mask`, when expressible: the mask must
  /// be one aligned power-of-two block of ways. Returns nullopt otherwise.
  [[nodiscard]] std::optional<ForceVectors> derive_force_vectors(WayMask mask) const;

  /// The set of ways reachable by vector-steered traversal (the core's block).
  [[nodiscard]] WayMask reachable_ways(const ForceVectors& force) const;

 private:
  // Direction of `way` at tree level l (0 = root): 0 = upper child, 1 = lower.
  // Way indices are consumed MSB-first along the path.
  [[nodiscard]] std::uint32_t direction_bit(std::uint32_t way,
                                            std::uint32_t level) const noexcept {
    return (way >> (levels_ - 1 - level)) & 1U;
  }

  /// Point victim search *away* from `way` at every level of its path:
  /// traversal follows bit==0 to the upper child, so a line in the upper
  /// subtree sets the bit to 1. The nodes along a way's path and the values
  /// they take are fixed per way (independent of the tree state), so the
  /// whole walk collapses to two bitwise ops over precomputed per-way tables.
  void promote(std::uint64_t set, std::uint32_t way) {
    tree_[set] = (tree_[set] & ~path_node_mask_[way]) | path_node_value_[way];
  }

  [[nodiscard]] bool node_bit(std::uint64_t set, std::uint32_t node) const {
    return (tree_[set] >> node) & 1ULL;
  }

  std::vector<std::uint64_t> tree_;  // A-1 node bits per set
  std::uint32_t levels_;
  // promote() tables: the tree nodes on `way`'s root-to-leaf path, and the
  // values promote(way) writes into them (1 where the way sits in the upper
  // subtree). Shared by every set; A entries of 8 bytes each.
  std::vector<std::uint64_t> path_node_mask_;
  std::vector<std::uint64_t> path_node_value_;
};

}  // namespace plrupart::cache
