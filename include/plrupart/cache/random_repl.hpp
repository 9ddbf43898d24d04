// Uniform-random replacement: the reference point the paper compares NRU's
// pointer-driven behavior against ("guarantees a random-like replacement").
//
// The per-access methods are defined inline so SetAssocCache, which holds the
// policy by value in a variant, inlines them into its access path without LTO.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>

#include "plrupart/cache/replacement.hpp"
#include "plrupart/common/rng.hpp"

namespace plrupart::cache {

class PLRUPART_EXPORT RandomRepl final : public PolicyShape {
 public:
  RandomRepl(const Geometry& geo, std::uint64_t seed);

  void on_hit(std::uint64_t, std::uint32_t, WayMask) {}
  void on_fill(std::uint64_t, std::uint32_t, WayMask) {}

  [[nodiscard]] std::uint32_t choose_victim(std::uint64_t /*set*/, WayMask allowed) {
    allowed &= all_ways();
    PLRUPART_ASSERT(allowed != 0);
    const std::uint32_t n = mask_count(allowed);
    std::uint32_t k = static_cast<std::uint32_t>(rng_.next_below(n));
    // Select the k-th set bit by clearing the k lowest ones.
    for (; k > 0; --k) allowed &= allowed - 1;
    return mask_first(allowed);
  }

  [[nodiscard]] StackEstimate estimate_position(std::uint64_t, std::uint32_t) const {
    // Random replacement keeps no recency state: the profiling logic can bound
    // the position only by the full stack.
    return StackEstimate{.lo = 1, .hi = ways_, .point = ways_};
  }

  void reset();

 private:
  Rng rng_;
  std::uint64_t seed_;
};

}  // namespace plrupart::cache
