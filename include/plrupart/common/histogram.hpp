// Fixed-size counting histogram used by the profiling logic and by tests.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

#include "plrupart/common/assert.hpp"

namespace plrupart {

/// Histogram over bins [0, size). Counters are saturating-free uint64; the SDH
/// decay mechanism (halving) keeps them far from overflow in practice.
class PLRUPART_EXPORT Histogram {
 public:
  explicit Histogram(std::size_t size) : counts_(size, 0) { PLRUPART_ASSERT(size > 0); }

  void record(std::size_t bin, std::uint64_t weight = 1) {
    PLRUPART_ASSERT(bin < counts_.size());
    counts_[bin] += weight;
  }

  [[nodiscard]] std::uint64_t count(std::size_t bin) const {
    PLRUPART_ASSERT(bin < counts_.size());
    return counts_[bin];
  }

  [[nodiscard]] std::size_t size() const noexcept { return counts_.size(); }

  [[nodiscard]] std::uint64_t total() const noexcept {
    return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
  }

  /// Sum of counts over bins [from, size).
  [[nodiscard]] std::uint64_t tail_sum(std::size_t from) const {
    PLRUPART_ASSERT(from <= counts_.size());
    return std::accumulate(counts_.begin() + static_cast<std::ptrdiff_t>(from),
                           counts_.end(), std::uint64_t{0});
  }

  /// Halve every counter (right shift): the SDH anti-saturation decay.
  void decay_halve() noexcept {
    for (auto& c : counts_) c >>= 1;
  }

  void clear() noexcept {
    for (auto& c : counts_) c = 0;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

 private:
  std::vector<std::uint64_t> counts_;
};

}  // namespace plrupart
