// Set-associative cache with a choice of four replacement policies and the three
// partition-enforcement mechanisms discussed in the paper:
//
//  * kNone          — no partitioning; every core may evict anywhere.
//  * kWayMasks      — global per-core replacement masks (paper §II-B.2): a core
//                     hits anywhere but selects victims only inside its mask.
//                     This mode also carries the BT up/down-vector enforcement,
//                     whose vector-steered traversal is equivalent to
//                     mask-guided traversal on the masks the partitioner emits
//                     (see TreePlru and core/tree_rounding).
//  * kOwnerCounters — per-set owner counters (paper §II-B.1, Qureshi-style):
//                     each line is tagged with its owner core; a core under its
//                     quota steals the victim from other cores' lines, a core
//                     at/over quota evicts among its own.
//
// Hot-path layout (the simulator replays hundreds of millions of accesses
// through here, so throughput bounds every figure reproduction):
//  * Structure-of-arrays set state: contiguous per-set tag words plus one
//    per-set block of bitmasks — [valid, owned-by-core-0, .., owned-by-core-
//    N-1] — so the hit scan is a branch-light tag-compare loop, invalid-way
//    search is a single count-trailing-zeros, and the owner-counter
//    enforcement mask is two bitwise ops (the bitmasks are maintained
//    incrementally on fill and evict; owner *counts* are popcounts,
//    and a line's owner is recovered from the owner masks on eviction).
//    Keeping valid and ownership in one block means all per-set mask state
//    shares one cache line for up to 7 cores.
//  * Policies by value: the cache holds its replacement policy as one
//    PolicyVariant, the closed set of the four concrete policy classes.
//    access() is one std::visit (a switch on the alternative index) around
//    the enforcement switch, reaching an access path templated over the
//    concrete policy, so every policy hook inlines. The cold paths (the ATD's
//    pre-update estimate_position, BT force-vector enforcement) read the
//    policy through the const policy() accessor.
//  * Address decomposition constants (line shift, set mask, tag shift) are
//    precomputed, eliminating the per-access divisions hidden in Geometry.
#pragma once

#include "plrupart/export.hpp"

#include <array>
#include <cstdint>
#include <variant>
#include <vector>

#include "plrupart/cache/cache_stats.hpp"
#include "plrupart/cache/geometry.hpp"
#include "plrupart/cache/lru.hpp"
#include "plrupart/cache/nru.hpp"
#include "plrupart/cache/replacement.hpp"
#include "plrupart/cache/srrip.hpp"
#include "plrupart/cache/tree_plru.hpp"

namespace plrupart::cache {

/// Every shipped replacement policy, by value. The alternatives follow
/// ReplacementKind's order, and kPolicyKinds names the kind of each (checked in
/// cache.cpp), so a held policy's index() looks up its kind.
using PolicyVariant = std::variant<TrueLru, Nru, TreePlru, Srrip>;
inline constexpr std::array<ReplacementKind, 4> kPolicyKinds = {
    ReplacementKind::kLru, ReplacementKind::kNru, ReplacementKind::kTreePlru,
    ReplacementKind::kSrrip};

enum class EnforcementMode : std::uint8_t {
  kNone,
  kWayMasks,
  kOwnerCounters,
};

[[nodiscard]] PLRUPART_EXPORT std::string to_string(EnforcementMode m);

/// Result of one cache access, including eviction information the simulator
/// and the tests use (a writeback model would hook evicted lines here too).
struct PLRUPART_EXPORT AccessOutcome {
  bool hit = false;
  std::uint32_t way = 0;
  bool evicted_valid = false;
  Addr evicted_line = 0;
  CoreId evicted_owner = 0;
};

class PLRUPART_EXPORT SetAssocCache {
 public:
  /// The last parameter is unread; bench/e2e/harness/e2e_harness.cpp:195-197 passes it.
  SetAssocCache(const Geometry& geo, ReplacementKind repl, std::uint32_t num_cores,
                EnforcementMode enforcement, std::uint64_t /*unused*/ = 0);

  /// Perform one access for `core` at byte address `addr`, counting into
  /// stats(). Misses allocate.
  AccessOutcome access(CoreId core, Addr addr, bool write = false);

  /// Non-mutating lookup: would this access hit, and in which way?
  [[nodiscard]] AccessOutcome probe(Addr addr) const;

  // --- Partition control -------------------------------------------------
  /// kWayMasks: set the ways `core` may search for victims (non-empty).
  void set_way_mask(CoreId core, WayMask mask);
  [[nodiscard]] WayMask way_mask(CoreId core) const;

  /// kOwnerCounters: set the number of ways `core` is entitled to.
  void set_way_quota(CoreId core, std::uint32_t ways);
  [[nodiscard]] std::uint32_t way_quota(CoreId core) const;

  /// Number of lines `core` currently holds in `set` (owner-counter state).
  [[nodiscard]] std::uint32_t owned_in_set(std::uint64_t set, CoreId core) const;

  // --- Introspection ------------------------------------------------------
  [[nodiscard]] const Geometry& geometry() const noexcept { return geo_; }
  [[nodiscard]] EnforcementMode enforcement() const noexcept { return enforcement_; }
  [[nodiscard]] std::uint32_t num_cores() const noexcept { return num_cores_; }
  [[nodiscard]] ReplacementKind replacement() const noexcept {
    return kPolicyKinds[policy_.index()];
  }
  [[nodiscard]] const PolicyVariant& policy() const noexcept { return policy_; }
  [[nodiscard]] const CacheStatsBundle& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

  /// The one tag-scan everybody shares (access hit path and probe).
  /// Two-phase, like a hardware way predictor: a SWAR compare
  /// (byte_match_mask) over the set's packed 1-byte partial tags (A bytes —
  /// one to eight words, a single cache line) nominates candidate ways, and
  /// only candidates load the full tag word for exact verification. A miss
  /// usually touches no tag line at all; a hit usually verifies exactly one
  /// way. Returns the way or kNoWay. The partial tags sit in whole words
  /// inside the set's metadata block, so the scan reads nothing past it.
  [[nodiscard]] std::uint32_t find_way(std::uint64_t set, std::uint64_t tag) const {
    const auto* partial = reinterpret_cast<const std::uint8_t*>(
        set_meta_.data() + set * meta_stride_ + partial_off_);
    WayMask candidates =
        byte_match_mask(partial, ways_, static_cast<std::uint8_t>(tag & 0xff)) &
        valid_mask(set);
    const std::uint64_t* tags = tags_.data() + set * ways_;
    while (candidates != 0) {
      const std::uint32_t w = mask_first(candidates);
      if (tags[w] == tag) return w;
      candidates &= candidates - 1;
    }
    return kNoWay;
  }

  /// Write `way`'s 1-byte partial tag (the low tag byte) into the filter.
  void set_partial(std::uint64_t set, std::uint32_t way, std::uint64_t tag) {
    std::uint64_t& word = set_meta_[set * meta_stride_ + partial_off_ + way / 8];
    const std::uint32_t shift = (way % 8) * 8;
    word = (word & ~(std::uint64_t{0xff} << shift)) | ((tag & 0xff) << shift);
  }

  /// The statically-dispatched access core; `Policy` is the concrete
  /// replacement class held in policy_, so every policy hook inlines, and `E`
  /// is the enforcement mode, so the unpartitioned path carries no enforcement
  /// branches and the mask/quota paths fold their scope selection.
  template <EnforcementMode E, class Policy>
  AccessOutcome access_impl(Policy& pol, CoreId core, Addr addr, bool write);

  /// The ways `core` may search for a victim in `set` under kOwnerCounters
  /// enforcement (always non-empty). kNone/kWayMasks scopes come straight
  /// from `all_ways_`/`masks_` in the statically-dispatched access core.
  [[nodiscard]] WayMask eviction_mask(std::uint64_t set, CoreId core) const;

  [[nodiscard]] WayMask& valid_mask(std::uint64_t set) {
    return set_meta_[set * meta_stride_];
  }
  [[nodiscard]] WayMask valid_mask(std::uint64_t set) const {
    return set_meta_[set * meta_stride_];
  }
  [[nodiscard]] WayMask& owner_ways(std::uint64_t set, CoreId core) {
    return set_meta_[set * meta_stride_ + 1 + core];
  }
  [[nodiscard]] WayMask owner_ways(std::uint64_t set, CoreId core) const {
    return set_meta_[set * meta_stride_ + 1 + core];
  }

  /// Owner of the valid line in `way` of `set`, recovered from the ownership
  /// bitmasks (they partition the valid mask, so exactly one core matches).
  [[nodiscard]] CoreId owner_of(std::uint64_t set, std::uint32_t way) const {
    const WayMask bit = WayMask{1} << way;
    const WayMask* owned = set_meta_.data() + set * meta_stride_ + 1;
    for (CoreId c = 0; c + 1 < num_cores_; ++c) {
      if ((owned[c] & bit) != 0) return c;
    }
    PLRUPART_ASSERT((owned[num_cores_ - 1] & bit) != 0);
    return num_cores_ - 1;
  }

  Geometry geo_;
  std::uint32_t num_cores_;
  EnforcementMode enforcement_;
  PolicyVariant policy_;

  // Address decomposition, precomputed from geo_ (all powers of two).
  std::uint32_t ways_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t tag_shift_ = 0;  ///< log2(sets)
  std::uint64_t set_mask_ = 0;
  WayMask all_ways_ = 0;

  // SoA set state.
  std::vector<std::uint64_t> tags_;  ///< [set * A + way]
  /// Per-set metadata block of `meta_stride_` words, laid out so that all the
  /// mask state an access touches shares one or two adjacent cache lines:
  ///   [0]                      valid bitmask
  ///   [1 + c]                  ways owned by core c (partitions the valid mask)
  ///   [partial_off_ + j]       packed 1-byte partial tags (byte w%8 of word
  ///                            w/8 holds way w's low tag byte) — find_way's filter
  std::vector<WayMask> set_meta_;
  std::uint32_t meta_stride_ = 0;   ///< (1 + num_cores) + ceil(A / 8)
  std::uint32_t partial_off_ = 0;   ///< 1 + num_cores

  std::vector<WayMask> masks_;          // kWayMasks: per-core eviction masks
  std::vector<std::uint32_t> quotas_;   // kOwnerCounters: per-core way quotas
  CacheStatsBundle stats_;
};

}  // namespace plrupart::cache
