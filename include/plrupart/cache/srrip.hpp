// Static RRIP (SRRIP, Jaleel et al., ISCA 2010) — an extension beyond the
// paper: a third pseudo-LRU-class policy to demonstrate that the library's
// partitioning/profiling framework generalizes past NRU and BT.
//
// Each line carries a 2-bit re-reference prediction value (RRPV). Fills
// insert at RRPV 2 ("long"), hits promote to 0 ("near-immediate"), victims
// are lines with RRPV 3 ("distant"); when none exists within the victim scope
// every scoped RRPV ages by one and the scan retries. The RRPV quartile also
// yields a natural eSDH estimate for the profiling logic.
//
// The per-access methods are defined inline so SetAssocCache, which holds the
// policy by value in a variant, inlines them into its access path without LTO.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <vector>

#include "plrupart/cache/replacement.hpp"

namespace plrupart::cache {

class PLRUPART_EXPORT Srrip final : public PolicyShape {
 public:
  static constexpr std::uint8_t kMaxRrpv = 3;       ///< 2-bit RRPV
  static constexpr std::uint8_t kInsertRrpv = 2;    ///< SRRIP "long" insertion
  static constexpr std::uint8_t kHitRrpv = 0;

  explicit Srrip(const Geometry& geo);

  void on_hit(std::uint64_t set, std::uint32_t way, WayMask /*allowed*/) {
    rrpv_[set * ways_ + way] = kHitRrpv;
  }
  void on_fill(std::uint64_t set, std::uint32_t way, WayMask /*allowed*/) {
    rrpv_[set * ways_ + way] = kInsertRrpv;
  }

  [[nodiscard]] std::uint32_t choose_victim(std::uint64_t set, WayMask allowed) {
    allowed &= all_ways();
    PLRUPART_ASSERT(allowed != 0);
    std::uint8_t* rrpv = rrpv_.data() + set * ways_;
    for (;;) {
      // Branch-light scan: collect the mask of distant lines (eight RRPVs per
      // SWAR step), then take the lowest allowed one.
      const WayMask distant = byte_match_mask(rrpv, ways_, kMaxRrpv) & allowed;
      if (distant != 0) return mask_first(distant);
      // Age only the victim scope: lines of other partitions keep their
      // RRPVs, mirroring how the paper scopes the NRU used-bit reset.
      for (std::uint32_t a = 0; a < ways_; ++a)
        rrpv[a] = static_cast<std::uint8_t>(rrpv[a] + ((allowed >> a) & 1U));
    }
  }

  /// RRPV quartile estimate: RRPV r maps to stack positions
  /// [r*A/4 + 1, (r+1)*A/4], recorded at the quartile's far edge — the same
  /// "upper bound" convention the paper's NRU estimator uses.
  [[nodiscard]] StackEstimate estimate_position(std::uint64_t set,
                                                std::uint32_t way) const {
    const std::uint32_t r = rrpv(set, way);
    // Quartile width; associativities below 4 collapse to coarse buckets.
    const std::uint32_t span = ways_ >= 4 ? ways_ / 4 : 1;
    std::uint32_t lo = r * span + 1;
    std::uint32_t hi = (r + 1) * span;
    if (lo > ways_) lo = ways_;
    if (hi > ways_) hi = ways_;
    if (r == kMaxRrpv) hi = ways_;  // the distant quartile always reaches A
    return StackEstimate{.lo = lo, .hi = hi, .point = hi};
  }

  void reset();

  [[nodiscard]] std::uint8_t rrpv(std::uint64_t set, std::uint32_t way) const {
    return rrpv_[set * ways_ + way];
  }

 private:
  /// [set * A + way], plus 8 bytes of padding: byte_match_mask loads whole
  /// words, which for A < 8 run past the last set's RRPVs.
  std::vector<std::uint8_t> rrpv_;
};

}  // namespace plrupart::cache
