// The kAvx2 access path. This TU is compiled with -mavx2 and is the only
// place access_impl is instantiated with D = kAvx2, so the vpcmpeqb+movemask
// branches of find_way_dispatch / choose_victim_dispatch inline right here
// while every other TU stays baseline x86-64 (see access_impl.ipp).
#include "plrupart/cache/cache.hpp"

#include "cache/policy_visit.hpp"

#include "cache/access_impl.ipp"

namespace plrupart::cache {

AccessOutcome SetAssocCache::access_avx2(CoreId core, Addr addr, bool write,
                                         CacheStatsBundle& stats) {
  return access_host<DispatchTier::kAvx2>(core, addr, write, stats);
}

}  // namespace plrupart::cache
