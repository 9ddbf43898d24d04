// Reference implementation of SetAssocCache, frozen at the pre-SoA /
// virtual-dispatch design: an array-of-structs line store, per-access virtual
// policy calls (through the test-local VirtualPolicy seam of virtual_policy.hpp,
// since the library now holds its policies by value), owner *counters* instead
// of ownership bitmasks, and an O(A) per-miss rebuild of the owner-counter
// eviction mask.
//
// It is the one independent byte-loop oracle of the cache's lookup: the
// library keeps no per-way reference scan of its own, only the SWAR scans, and
// this model shares no code with their access path. (It does call the same
// replacement policies, so SRRIP's SWAR victim scan is pinned separately, by
// test_byte_match.cpp.) It exists for two tier-1 checks:
//  * test_golden_equivalence.cpp replays long random traces through this model
//    and the production cache, asserting identical AccessOutcome sequences and
//    statistics for every ReplacementKind × EnforcementMode × associativity
//    combination — the hot-path refactor must be bit-invisible.
//  * perf_smoke.cpp uses it as the in-process throughput baseline the
//    optimized access path must beat.
//
// Deliberately NOT deduplicated with src/cache/cache.cpp: sharing code would
// let a bug in the optimized path hide in the reference.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/cache/cache_stats.hpp"
#include "plrupart/cache/geometry.hpp"
#include "plrupart/cache/replacement.hpp"
#include "virtual_policy.hpp"

namespace plrupart::testing {

class ReferenceCache {
 public:
  ReferenceCache(const cache::Geometry& geo, cache::ReplacementKind repl,
                 std::uint32_t num_cores, cache::EnforcementMode enforcement)
      : geo_(geo),
        num_cores_(num_cores),
        enforcement_(enforcement),
        policy_(make_virtual_policy(repl, geo)),
        lines_(geo.sets() * geo.associativity),
        masks_(num_cores, full_way_mask(geo.associativity)),
        quotas_(num_cores, geo.associativity),
        owner_counts_(enforcement == cache::EnforcementMode::kOwnerCounters
                          ? geo.sets() * num_cores
                          : 0,
                      0),
        stats_(num_cores) {
    geo_.validate();
  }

  cache::AccessOutcome access(cache::CoreId core, cache::Addr addr, bool write = false) {
    const std::uint64_t sets = frozen_sets();
    const cache::Addr la = addr / geo_.line_bytes;
    const std::uint64_t set = la & (sets - 1);
    const std::uint64_t tag = la >> ilog2_exact(sets);

    cache::CoreCacheStats& cs = stats_.per_core[core];
    ++cs.accesses;
    if (write) ++cs.writes;

    const WayMask policy_scope = enforcement_ == cache::EnforcementMode::kWayMasks
                                     ? masks_[core]
                                     : full_way_mask(geo_.associativity);
    cache::AccessOutcome out;

    for (std::uint32_t w = 0; w < geo_.associativity; ++w) {
      Line& l = line(set, w);
      if (l.valid && l.tag == tag) {
        ++cs.hits;
        policy_->on_hit(set, w, policy_scope);
        out.hit = true;
        out.way = w;
        return out;
      }
    }

    ++cs.misses;

    std::uint32_t victim = geo_.associativity;  // sentinel
    for (std::uint32_t w = 0; w < geo_.associativity; ++w) {
      if (mask_test(policy_scope, w) && !line(set, w).valid) {
        victim = w;
        break;
      }
    }
    if (victim == geo_.associativity) {
      const WayMask victim_scope =
          enforcement_ == cache::EnforcementMode::kOwnerCounters
              ? eviction_mask(set, core)
              : policy_scope;
      victim = policy_->choose_victim(set, victim_scope);
    }

    Line& v = line(set, victim);
    if (v.valid) {
      out.evicted_valid = true;
      out.evicted_line = (v.tag << ilog2_exact(frozen_sets())) | set;
      out.evicted_owner = v.owner;
      if (v.owner == core)
        ++cs.self_evictions;
      else
        ++cs.cross_evictions;
      if (enforcement_ == cache::EnforcementMode::kOwnerCounters)
        --owner_count(set, v.owner);
    }

    v.tag = tag;
    v.owner = core;
    v.valid = true;
    if (enforcement_ == cache::EnforcementMode::kOwnerCounters)
      ++owner_count(set, core);

    policy_->on_fill(set, victim, policy_scope);
    out.hit = false;
    out.way = victim;
    return out;
  }

  [[nodiscard]] cache::AccessOutcome probe(cache::Addr addr) const {
    const std::uint64_t sets = frozen_sets();
    const cache::Addr la = addr / geo_.line_bytes;
    const std::uint64_t set = la & (sets - 1);
    const std::uint64_t tag = la >> ilog2_exact(sets);
    cache::AccessOutcome out;
    for (std::uint32_t w = 0; w < geo_.associativity; ++w) {
      const Line& l = line(set, w);
      if (l.valid && l.tag == tag) {
        out.hit = true;
        out.way = w;
        return out;
      }
    }
    return out;
  }

  void set_way_mask(cache::CoreId core, WayMask mask) {
    mask &= full_way_mask(geo_.associativity);
    masks_[core] = mask;
  }
  void set_way_quota(cache::CoreId core, std::uint32_t ways) { quotas_[core] = ways; }

  [[nodiscard]] std::uint32_t owned_in_set(std::uint64_t set, cache::CoreId core) const {
    if (enforcement_ == cache::EnforcementMode::kOwnerCounters)
      return owner_count(set, core);
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < geo_.associativity; ++w) {
      const Line& l = line(set, w);
      if (l.valid && l.owner == core) ++n;
    }
    return n;
  }

  [[nodiscard]] const cache::CacheStatsBundle& stats() const noexcept { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    cache::CoreId owner = 0;
    bool valid = false;
  };

  /// Set count by division, as Geometry::sets() computed it when this model
  /// was frozen: the per-access divisions are part of the baseline cost that
  /// perf_smoke measures the optimized path against.
  [[nodiscard]] std::uint64_t frozen_sets() const {
    return geo_.size_bytes / geo_.line_bytes / geo_.associativity;
  }

  [[nodiscard]] Line& line(std::uint64_t set, std::uint32_t way) {
    return lines_[set * geo_.associativity + way];
  }
  [[nodiscard]] const Line& line(std::uint64_t set, std::uint32_t way) const {
    return lines_[set * geo_.associativity + way];
  }

  [[nodiscard]] WayMask eviction_mask(std::uint64_t set, cache::CoreId core) const {
    const WayMask all = full_way_mask(geo_.associativity);
    switch (enforcement_) {
      case cache::EnforcementMode::kNone:
        return all;
      case cache::EnforcementMode::kWayMasks:
        return masks_[core];
      case cache::EnforcementMode::kOwnerCounters: {
        WayMask own = 0;
        WayMask others = 0;
        for (std::uint32_t w = 0; w < geo_.associativity; ++w) {
          const Line& l = line(set, w);
          if (!l.valid) continue;
          if (l.owner == core)
            own |= (WayMask{1} << w);
          else
            others |= (WayMask{1} << w);
        }
        const bool under_quota = owner_count(set, core) < quotas_[core];
        if (under_quota && others != 0) return others;
        if (own != 0) return own;
        return (own | others) != 0 ? (own | others) : all;
      }
    }
    return all;
  }

  [[nodiscard]] std::uint32_t& owner_count(std::uint64_t set, cache::CoreId core) {
    return owner_counts_[set * num_cores_ + core];
  }
  [[nodiscard]] std::uint32_t owner_count(std::uint64_t set, cache::CoreId core) const {
    return owner_counts_[set * num_cores_ + core];
  }

  cache::Geometry geo_;
  std::uint32_t num_cores_;
  cache::EnforcementMode enforcement_;
  std::unique_ptr<VirtualPolicy> policy_;
  std::vector<Line> lines_;
  std::vector<WayMask> masks_;
  std::vector<std::uint32_t> quotas_;
  std::vector<std::uint32_t> owner_counts_;
  cache::CacheStatsBundle stats_;
};

}  // namespace plrupart::testing
