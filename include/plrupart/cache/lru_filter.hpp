// Single-owner true-LRU cache that answers only "hit or miss" — the model of
// a core's private L1D.
//
// True LRU is the one replacement policy whose contents are fixed by the
// recency stack: the A most recently used distinct lines of a set are exactly
// the resident ones. So each set stores just its tags in recency order (MRU
// first), and an access is one operation whether it hits or misses: find the
// tag's stack position p (A-1 when absent, i.e. the LRU victim), shift
// t[0..p-1] down by one slot and store the tag at t[0]. The kernel is a
// template on the associativity, so both loops unroll into compare/select
// chains with no data-dependent branch; one predictable switch per access
// picks the instantiation.
//
// Hit/miss-identical to SetAssocCache(kLru, 1 core, kNone): that cache fills
// the lowest invalid way and starts way i at stack position i, so its valid
// lines always hold positions 0..k-1 in recency order and its outcome
// sequence depends only on the recency list kept here. There are no way
// indices, eviction outcomes or statistics — the hierarchy reads none of them.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "plrupart/common/assert.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/cache/geometry.hpp"

namespace plrupart::cache {

class PLRUPART_EXPORT LruFilter {
 public:
  /// Throws InvariantError for an invalid geometry, and for line_bytes x sets
  /// == 1, the one shape where a real tag (the whole address) can equal the
  /// all-ones empty-slot sentinel.
  explicit LruFilter(const Geometry& geo) {
    geo.validate();
    PLRUPART_ASSERT_MSG(
        geo.line_bytes * geo.sets() != 1,
        "LruFilter geometry {size_bytes=" + std::to_string(geo.size_bytes) +
            ", associativity=" + std::to_string(geo.associativity) +
            ", line_bytes=" + std::to_string(geo.line_bytes) +
            "} has line_bytes x sets == 1: a tag could equal the empty-slot sentinel");
    ways_ = geo.associativity;
    line_shift_ = ilog2_exact(geo.line_bytes);
    tag_shift_ = line_shift_ + ilog2_exact(geo.sets());
    set_mask_ = geo.sets() - 1;
    tags_.assign(geo.lines(), kEmpty);
  }

  /// Access byte address `addr`; true on a hit. A miss allocates (evicting
  /// the LRU line when the set is full).
  bool access(Addr addr) {
    const std::uint64_t set = (addr >> line_shift_) & set_mask_;
    const std::uint64_t tag = addr >> tag_shift_;
    std::uint64_t* t = tags_.data() + set * ways_;
    switch (ways_) {
      case 1: return touch<1>(t, tag);
      case 2: return touch<2>(t, tag);
      case 4: return touch<4>(t, tag);
      case 8: return touch<8>(t, tag);
      case 16: return touch<16>(t, tag);
      case 32: return touch<32>(t, tag);
      default: return touch<64>(t, tag);  // validate() admits powers of two <= 64
    }
  }

  /// Empty every set.
  void reset() { tags_.assign(tags_.size(), kEmpty); }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  template <std::uint32_t A>
  static bool touch(std::uint64_t* t, std::uint64_t tag) {
    std::uint32_t p = A - 1;
    bool hit = false;
    for (std::uint32_t i = 0; i < A; ++i) {
      const bool eq = t[i] == tag;
      p = eq ? i : p;
      hit |= eq;
    }
    for (std::uint32_t i = A - 1; i > 0; --i) t[i] = i <= p ? t[i - 1] : t[i];
    t[0] = tag;
    return hit;
  }

  std::uint32_t ways_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t tag_shift_ = 0;  ///< log2(line_bytes) + log2(sets)
  std::uint64_t set_mask_ = 0;
  std::vector<std::uint64_t> tags_;  ///< [set * A + stack position], MRU first
};

}  // namespace plrupart::cache
