// Not-Recently-Used replacement as implemented in the Sun UltraSPARC T2 L2:
// one used bit per line, plus a single replacement pointer shared by every set
// of the cache (which is what makes victim choice behave randomly — the pointer
// position is uncorrelated with any particular set's history).
//
// Semantics (paper §III-A):
//  * On any access (hit or fill) the line's used bit is set. If that would make
//    every used bit in the access scope 1, all other scope bits reset to 0.
//  * On a miss, scan ways circularly from the replacement pointer for a line
//    with used bit 0, restricted to the enforcement mask; afterwards the
//    pointer advances one way past the victim.
//  * Partitioned operation scopes the saturation reset to the accessing core's
//    allowed ways (∪ the accessed line), which reduces to the base rule when
//    the mask is full. The paper states the rule for the whole set only; the
//    scoping is this repo's reading, so that one core's accesses never clear
//    the used bits of another core's partition.
//
// Every per-access method is a handful of mask operations, defined inline (the
// class is final) so the cache's statically-dispatched access path inlines
// them without LTO.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <vector>

#include "plrupart/cache/replacement.hpp"

namespace plrupart::cache {

class PLRUPART_EXPORT Nru final : public ReplacementPolicy {
 public:
  explicit Nru(const Geometry& geo);

  [[nodiscard]] ReplacementKind kind() const noexcept override {
    return ReplacementKind::kNru;
  }

  void on_hit(std::uint64_t set, std::uint32_t way, WayMask allowed) override {
    mark_used(set, way, allowed);
  }
  void on_fill(std::uint64_t set, std::uint32_t way, WayMask allowed) override {
    mark_used(set, way, allowed);
  }

  [[nodiscard]] std::uint32_t choose_victim(std::uint64_t set, WayMask allowed) override {
    allowed &= all_ways();
    PLRUPART_ASSERT(allowed != 0);
    WayMask& used = used_[set];

    WayMask candidates = allowed & ~used;
    if (candidates == 0) {
      // Every allowed line is marked used: reset the allowed scope and retry.
      // The base (unpartitioned) policy never reaches this state because the
      // access-side saturation reset guarantees at least one clear bit, but a
      // partition-restricted scan can.
      used &= ~allowed;
      candidates = allowed;
    }

    // Circular scan from the replacement pointer (mask_next_circular, inlined
    // without its redundant range re-masking: candidates ⊆ all_ways already).
    const WayMask at_or_after = candidates & ~((WayMask{1} << pointer_) - 1);
    const std::uint32_t victim = mask_first(at_or_after != 0 ? at_or_after : candidates);
    // ways_ is a power of two (Geometry::validate), so the circular advance is
    // a mask instead of a division.
    pointer_ = (victim + 1) & (ways_ - 1);
    return victim;
  }

  [[nodiscard]] StackEstimate estimate_position(std::uint64_t set,
                                                std::uint32_t way) const override {
    const WayMask used = used_[set] & all_ways();
    const std::uint32_t u = mask_count(used);
    if (mask_test(used, way)) {
      // Accessed line recently used: somewhere within the U most-recent lines.
      return StackEstimate{.lo = 1, .hi = u, .point = u};
    }
    // Not recently used: deeper than every used line.
    return StackEstimate{.lo = u + 1, .hi = ways_, .point = ways_};
  }

  void reset() override;

  /// Test/profiler hooks.
  [[nodiscard]] bool used_bit(std::uint64_t set, std::uint32_t way) const;
  [[nodiscard]] std::uint32_t used_count(std::uint64_t set) const;
  [[nodiscard]] std::uint32_t replacement_pointer() const noexcept { return pointer_; }

 private:
  void mark_used(std::uint64_t set, std::uint32_t way, WayMask allowed) {
    WayMask& used = used_[set];
    const WayMask line = WayMask{1} << way;
    // The saturation scope: the accessing core's ways plus the line it touched
    // (hits are allowed to land outside the core's partition).
    const WayMask scope = (allowed | line) & all_ways();
    used |= line;
    if ((used & scope) == scope) {
      used &= ~scope;
      used |= line;
    }
  }

  std::vector<WayMask> used_;   // one used-bit vector per set
  std::uint32_t pointer_ = 0;   // cache-global replacement pointer
};

}  // namespace plrupart::cache
