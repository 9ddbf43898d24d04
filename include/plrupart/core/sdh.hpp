// Stack Distance Histogram (paper §II-A).
//
// A+1 hardware registers: r1..rA count accesses hitting at each LRU stack
// position (1 = MRU), r_{A+1} counts ATD misses. With the LRU stack property,
// a thread given w ways misses exactly sum(r_{w+1} .. r_{A+1}) of its past
// accesses — the miss curve the partitioning policy consumes.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

#include "plrupart/common/assert.hpp"

namespace plrupart::core {

class PLRUPART_EXPORT Sdh {
 public:
  explicit Sdh(std::uint32_t associativity)
      : assoc_(associativity), regs_(std::size_t{associativity} + 1, 0) {
    PLRUPART_ASSERT(associativity >= 1);
  }

  /// Record a hit at stack distance d (1 = MRU .. A = LRU).
  void record_hit(std::uint32_t distance) {
    PLRUPART_ASSERT_MSG(distance >= 1 && distance <= assoc_,
                        "stack distance out of [1, A]");
    ++regs_[distance - 1];
  }

  /// Record an access that misses even with the full associativity
  /// (the paper's "position A+1").
  void record_miss() { ++regs_[assoc_]; }

  /// Register value r_i, i in [1, A+1].
  [[nodiscard]] std::uint64_t reg(std::uint32_t i) const {
    PLRUPART_ASSERT(i >= 1 && i <= assoc_ + 1);
    return regs_[i - 1];
  }

  /// Hits the thread would see with w ways: sum(r_1 .. r_w). w in [0, A].
  [[nodiscard]] std::uint64_t hits_with_ways(std::uint32_t w) const {
    PLRUPART_ASSERT(w <= assoc_);
    return std::accumulate(regs_.begin(), regs_.begin() + w, std::uint64_t{0});
  }

  /// Misses the thread would see with w ways: sum(r_{w+1} .. r_{A+1}).
  [[nodiscard]] std::uint64_t misses_with_ways(std::uint32_t w) const {
    PLRUPART_ASSERT(w <= assoc_);
    return std::accumulate(regs_.begin() + w, regs_.end(), std::uint64_t{0});
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    return std::accumulate(regs_.begin(), regs_.end(), std::uint64_t{0});
  }
  [[nodiscard]] std::uint32_t associativity() const noexcept { return assoc_; }

  /// Interval-boundary decay: right-shift every register by one (divide by 2),
  /// keeping a fair ratio between past and future intervals (paper §II-A).
  void decay_halve() noexcept {
    for (auto& r : regs_) r >>= 1;
  }

 private:
  std::uint32_t assoc_;
  std::vector<std::uint64_t> regs_;  // r_1..r_{A+1} at indices 0..A
};

}  // namespace plrupart::core
