#include "plrupart/cache/cache.hpp"

#include <algorithm>

#include "cache/policy_visit.hpp"

#include "cache/access_impl.ipp"

namespace plrupart::cache {

std::string to_string(EnforcementMode m) {
  switch (m) {
    case EnforcementMode::kNone:
      return "none";
    case EnforcementMode::kWayMasks:
      return "way-masks";
    case EnforcementMode::kOwnerCounters:
      return "owner-counters";
  }
  return "?";
}

SetAssocCache::SetAssocCache(const Geometry& geo, ReplacementKind repl,
                             std::uint32_t num_cores, EnforcementMode enforcement,
                             std::uint64_t seed)
    : geo_(geo),
      num_cores_(num_cores),
      enforcement_(enforcement),
      dispatch_(active_dispatch_tier()),
      kind_(repl),
      policy_(make_policy(repl, geo, seed)),
      masks_(num_cores, full_way_mask(geo.associativity)),
      quotas_(num_cores, geo.associativity),
      stats_(num_cores) {
  PLRUPART_ASSERT(num_cores >= 1);
  geo_.validate();
  PLRUPART_ASSERT(kind_ == policy_->kind());
  ways_ = geo_.associativity;
  line_shift_ = ilog2_exact(geo_.line_bytes);
  tag_shift_ = ilog2_exact(geo_.sets());
  set_mask_ = geo_.sets() - 1;
  all_ways_ = full_way_mask(ways_);
  partial_words_ = (ways_ + 7) / 8;
  partial_off_ = num_cores_ + 1;
  meta_stride_ = partial_off_ + partial_words_;
  // +8 words = 64 bytes of padding on each array: the AVX2 kernels load
  // whole 32-byte blocks past the scanned range and mask the overhang (the
  // padded-buffer contract of src/cache/simd).
  tags_.assign(geo_.sets() * ways_ + 8, 0);
  set_meta_.assign(geo_.sets() * meta_stride_ + 8, 0);
}

void SetAssocCache::reset() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(set_meta_.begin(), set_meta_.end(), 0);
  policy_->reset();
  stats_.reset();
}

WayMask SetAssocCache::eviction_mask(std::uint64_t set, CoreId core) const {
  // Under quota: steal from other cores' lines; at/over quota: evict own.
  // The per-core ownership bitmasks are maintained incrementally, so this
  // is O(1) in the associativity (the pre-SoA layout rescanned every way).
  const WayMask valid = valid_mask(set);
  const WayMask own = owner_ways(set, core);
  const WayMask others = valid & ~own;
  const bool under_quota = mask_count(own) < quotas_[core];
  if (under_quota && others != 0) return others;
  if (own != 0) return own;
  // Degenerate set states (core owns everything, or owns nothing while at
  // quota zero lines): fall back to any valid line.
  return valid != 0 ? valid : all_ways_;
}

// The one access entry. The kSwar matrix is instantiated here; the kAvx2
// one lives in src/cache/simd/access_avx2.cpp, the only TU built with
// -mavx2 — see access_impl.ipp.
AccessOutcome SetAssocCache::access(CoreId core, Addr addr, bool write,
                                    CacheStatsBundle& stats) {
#if defined(PLRUPART_SIMD_AVX2)
  if (dispatch_ == DispatchTier::kAvx2) return access_avx2(core, addr, write, stats);
#endif
  return access_host<DispatchTier::kSwar>(core, addr, write, stats);
}

AccessOutcome SetAssocCache::probe(Addr addr) const {
  const Addr la = addr >> line_shift_;
  const std::uint64_t set = la & set_mask_;
  const std::uint64_t tag = la >> tag_shift_;
  AccessOutcome out;
  if (const std::uint32_t w = find_way(set, tag); w != kNoWay) {
    out.hit = true;
    out.way = w;
  }
  return out;
}

bool SetAssocCache::invalidate(Addr addr) {
  const Addr la = addr >> line_shift_;
  const std::uint64_t set = la & set_mask_;
  const std::uint64_t tag = la >> tag_shift_;
  const std::uint32_t w = find_way(set, tag);
  if (w == kNoWay) return false;
  const WayMask bit = WayMask{1} << w;
  owner_ways(set, owner_of(set, w)) &= ~bit;
  valid_mask(set) &= ~bit;
  return true;
}

void SetAssocCache::set_way_mask(CoreId core, WayMask mask) {
  PLRUPART_ASSERT(core < num_cores_);
  PLRUPART_ASSERT_MSG(enforcement_ == EnforcementMode::kWayMasks,
                      "way masks only apply in kWayMasks mode");
  mask &= all_ways_;
  PLRUPART_ASSERT_MSG(mask != 0, "a core needs at least one way");
  masks_[core] = mask;
}

WayMask SetAssocCache::way_mask(CoreId core) const {
  PLRUPART_ASSERT(core < num_cores_);
  return masks_[core];
}

void SetAssocCache::set_way_quota(CoreId core, std::uint32_t ways) {
  PLRUPART_ASSERT(core < num_cores_);
  PLRUPART_ASSERT_MSG(enforcement_ == EnforcementMode::kOwnerCounters,
                      "quotas only apply in kOwnerCounters mode");
  PLRUPART_ASSERT(ways >= 1 && ways <= ways_);
  quotas_[core] = ways;
}

std::uint32_t SetAssocCache::way_quota(CoreId core) const {
  PLRUPART_ASSERT(core < num_cores_);
  return quotas_[core];
}

std::uint32_t SetAssocCache::owned_in_set(std::uint64_t set, CoreId core) const {
  PLRUPART_ASSERT(core < num_cores_);
  return mask_count(owner_ways(set, core));
}

}  // namespace plrupart::cache
