#include "plrupart/sim/memory_hierarchy.hpp"

namespace plrupart::sim {

// Each member validates its part of the configuration as it is built.
MemoryHierarchy::MemoryHierarchy(HierarchyConfig config)
    : config_(std::move(config)),
      l1d_(config_.l2.num_cores, cache::LruFilter(config_.l1d)),
      l2_(config_.l2),
      counters_(config_.l2.num_cores) {}

AccessLevel MemoryHierarchy::access_l2(cache::CoreId core, cache::Addr addr, bool write,
                                       std::uint64_t now_cycles, L2Echo& echo) {
  HierarchyCounters& ctr = counters_[core];
  ++ctr.l1_misses;
  ++ctr.l2_accesses;
  const auto l2 = l2_.access(core, addr, write, now_cycles);
  echo.reached_l2 = true;
  echo.hit = l2.hit;
  echo.way = l2.way;
  echo.evicted_valid = l2.evicted_valid;
  echo.evicted_line = l2.evicted_line;
  if (l2.hit) return AccessLevel::kL2;

  ++ctr.l2_misses;
  return AccessLevel::kMemory;
}

const cache::LruFilter& MemoryHierarchy::l1d(cache::CoreId core) const {
  PLRUPART_ASSERT(core < l1d_.size());
  return l1d_[core];
}

const HierarchyCounters& MemoryHierarchy::counters(cache::CoreId core) const {
  PLRUPART_ASSERT(core < counters_.size());
  return counters_[core];
}

}  // namespace plrupart::sim
