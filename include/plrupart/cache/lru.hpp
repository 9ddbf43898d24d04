// True LRU replacement: each line carries an exact stack position
// (A * log2(A) bits per set in hardware; see power/complexity.hpp).
//
// The per-access methods are defined inline so SetAssocCache, which holds the
// policy by value in a variant, inlines them into its access path without LTO.
#pragma once

#include "plrupart/export.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "plrupart/cache/replacement.hpp"
#include "plrupart/common/bits.hpp"

namespace plrupart::cache {

class PLRUPART_EXPORT TrueLru final : public PolicyShape {
 public:
  explicit TrueLru(const Geometry& geo);

  void on_hit(std::uint64_t set, std::uint32_t way, WayMask /*allowed*/) {
    promote(set, way);
  }
  void on_fill(std::uint64_t set, std::uint32_t way, WayMask /*allowed*/) {
    promote(set, way);
  }

  /// Branch-free: stack positions are a permutation of 0..A-1, so the
  /// deepest allowed position names exactly one way, found by one SWAR scan.
  [[nodiscard]] std::uint32_t choose_victim(std::uint64_t set, WayMask allowed) {
    PLRUPART_ASSERT((allowed & all_ways()) != 0);
    const std::uint8_t* p = pos_.data() + set * ways_;
    std::uint8_t deepest = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      const auto keep = static_cast<std::uint8_t>(0U - ((allowed >> w) & 1U));
      deepest = std::max(deepest, static_cast<std::uint8_t>(p[w] & keep));
    }
    return mask_first(byte_match_mask(p, ways_, deepest) & allowed);
  }

  [[nodiscard]] StackEstimate estimate_position(std::uint64_t set,
                                                std::uint32_t way) const {
    const auto p = static_cast<std::uint32_t>(pos(set, way)) + 1;  // 1-based
    return StackEstimate{.lo = p, .hi = p, .point = p};
  }

  void reset();

  /// Exact 0-based stack position (0 = MRU, A-1 = LRU) — test/profiler hook.
  [[nodiscard]] std::uint32_t stack_position(std::uint64_t set, std::uint32_t way) const;

 private:
  /// Branchless promotion: every line above `way`'s old position ages by one.
  void promote(std::uint64_t set, std::uint32_t way) {
    std::uint8_t* p = pos_.data() + set * ways_;
    const std::uint8_t old = p[way];
    for (std::uint32_t w = 0; w < ways_; ++w)
      p[w] = static_cast<std::uint8_t>(p[w] + (p[w] < old ? 1 : 0));
    p[way] = 0;
  }
  [[nodiscard]] std::uint8_t& pos(std::uint64_t set, std::uint32_t way) {
    return pos_[set * ways_ + way];
  }
  [[nodiscard]] std::uint8_t pos(std::uint64_t set, std::uint32_t way) const {
    return pos_[set * ways_ + way];
  }

  // pos_[set*A + way] = 0-based recency (0 = MRU). Initialized so that way i
  // starts at position i, matching hardware reset of the LRU bits. Eight
  // bytes of padding keep choose_victim's whole-word loads in bounds.
  std::vector<std::uint8_t> pos_;
};

}  // namespace plrupart::cache
