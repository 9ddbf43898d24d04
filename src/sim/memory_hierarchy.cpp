#include "plrupart/sim/memory_hierarchy.hpp"

namespace plrupart::sim {

MemoryHierarchy::MemoryHierarchy(HierarchyConfig config) : config_(std::move(config)) {
  config_.validate();
  const std::uint32_t cores = config_.l2.num_cores;
  PLRUPART_ASSERT(cores >= 1);
  l1d_.assign(cores, cache::LruFilter(config_.l1d));
  l2_ = std::make_unique<core::PartitionedCacheSystem>(config_.l2);
  counters_.resize(cores);
}

AccessLevel MemoryHierarchy::access(cache::CoreId core, cache::Addr addr, bool write,
                                    std::uint64_t now_cycles) {
  L2Echo echo;
  return access(core, addr, write, now_cycles, echo);
}

AccessLevel MemoryHierarchy::access(cache::CoreId core, cache::Addr addr, bool write,
                                    std::uint64_t now_cycles, L2Echo& echo) {
  return access_after_l1(core, addr, write, access_l1(core, addr), now_cycles, echo);
}

AccessLevel MemoryHierarchy::access_after_l1(cache::CoreId core, cache::Addr addr,
                                             bool write, bool l1_hit,
                                             std::uint64_t now_cycles, L2Echo& echo) {
  PLRUPART_ASSERT(core < counters_.size());
  HierarchyCounters& ctr = counters_[core];
  echo = L2Echo{};

  ++ctr.l1_accesses;
  if (l1_hit) return AccessLevel::kL1;

  ++ctr.l1_misses;
  ++ctr.l2_accesses;
  const auto l2 = l2_->access(core, addr, write, now_cycles);
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

void MemoryHierarchy::reset() {
  for (auto& l1 : l1d_) l1.reset();
  l2_->reset();
  for (auto& c : counters_) c = HierarchyCounters{};
}

}  // namespace plrupart::sim
