// Replacement policy vocabulary: the closed set of policies (ReplacementKind),
// the profiling estimate they report, and the shape they share.
//
// A policy owns the per-set replacement metadata for an entire cache (LRU bits,
// NRU used bits + the cache-global replacement pointer, or BT tree bits) and is
// driven by the cache on hits and fills. Every policy has the same hooks:
//  * on_hit(set, way, allowed) — a line was re-referenced; `allowed` is the
//    accessing core's enforcement mask (full when unpartitioned), to which NRU
//    scopes its used-bit saturation reset;
//  * on_fill(set, way, allowed) — a line was just installed into `way`;
//  * choose_victim(set, allowed) — pick a victim among the valid lines that
//    `allowed` (non-empty) selects, so the same policy object serves both
//    unpartitioned caches and the paper's mask-based enforcement;
//  * estimate_position(set, way) — what the profiling logic can read from the
//    replacement state *before* the access updates it: exact stack positions
//    for true LRU, the paper's estimated positions for NRU and BT;
//  * reset() — back to the post-power-on state.
// SetAssocCache holds the five concrete policies as one std::variant whose
// alternatives follow ReplacementKind's order, so a policy is a value, not an
// interface.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <string>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/common/bits.hpp"

namespace plrupart::cache {

enum class ReplacementKind : std::uint8_t {
  kLru,      ///< true LRU (A*log2(A) bits per set)
  kNru,      ///< UltraSPARC T2 Not-Recently-Used (A used bits + global pointer)
  kTreePlru, ///< IBM binary-tree pseudo-LRU (A-1 bits per set)
  kRandom,   ///< uniform random victim (reference baseline)
  kSrrip,    ///< 2-bit static RRIP (extension beyond the paper; 2A bits/set)
};

[[nodiscard]] PLRUPART_EXPORT std::string to_string(ReplacementKind k);

/// Range of stack positions (1 = MRU .. A = LRU) the replacement state admits
/// for a line, plus the point value the paper's profiling logic would record.
/// For true LRU, lo == hi == point.
struct PLRUPART_EXPORT StackEstimate {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::uint32_t point = 0;
};

/// The shape every policy carries: a plain base with no virtual interface, so
/// the policies stay copyable and movable values.
class PLRUPART_EXPORT PolicyShape {
 public:
  explicit PolicyShape(const Geometry& geo)
      : sets_(geo.sets()),
        ways_(geo.associativity),
        all_mask_(full_way_mask(geo.associativity)) {}

  [[nodiscard]] std::uint64_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  /// Cached full mask: the policies re-mask `allowed` with this on every
  /// access, so it must not re-derive (and re-assert) the mask each call.
  [[nodiscard]] WayMask all_ways() const noexcept { return all_mask_; }

 protected:
  std::uint64_t sets_;
  std::uint32_t ways_;
  WayMask all_mask_;
};

}  // namespace plrupart::cache
