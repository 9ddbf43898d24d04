// Two-level memory hierarchy: private per-core L1 data caches in front of the
// shared, partitioned L2 (the paper's baseline: 32KB 2-way L1D, 2MB 16-way
// shared L2).
//
// Instruction fetch is not modeled: SPEC CPU 2000 code footprints fit the 64KB
// L1I, so instruction traffic contributes negligibly to L2 contention — the
// phenomenon under study. Leaving the L1I out is a deliberate simplification
// of the paper's baseline, not an oversight.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <vector>

#include "plrupart/cache/lru_filter.hpp"
#include "plrupart/core/partitioned_cache.hpp"
#include "plrupart/sim/core_model.hpp"

namespace plrupart::sim {

struct PLRUPART_EXPORT HierarchyConfig {
  cache::Geometry l1d{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128};
  core::CpaConfig l2;  // num_cores inside governs the hierarchy width
};

struct PLRUPART_EXPORT HierarchyCounters {
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_misses = 0;
};

/// What the shared L2 saw during one hierarchy access — everything the timed
/// overlay needs to charge cycles without re-deriving cache state. Filled only
/// when the access misses L1 (reached_l2); line/way/eviction fields mirror the
/// L2's AccessOutcome at line granularity.
struct PLRUPART_EXPORT L2Echo {
  bool reached_l2 = false;  ///< the access missed L1 and probed the L2
  bool hit = false;         ///< L2 hit (reached_l2 only)
  std::uint32_t way = 0;    ///< way touched or filled
  bool evicted_valid = false;
  cache::Addr evicted_line = 0;  ///< line-granular victim address
};

class PLRUPART_EXPORT MemoryHierarchy {
 public:
  explicit MemoryHierarchy(HierarchyConfig config);

  /// One data access by `core` is two halves: access_l1, then
  /// access_after_l1 with its outcome, which returns the level that satisfied
  /// the access and fills `echo` with the L2 outcome for the timed overlay.
  /// The L1 half touches only `core`'s private filter, so the simulator
  /// resolves it when it fetches the op (on the core's front-end producer in
  /// a pipelined run); the after-L1 half (counters, the L2 and its profilers,
  /// the echo) runs in the replay order. An L1 hit's after-L1 half is one
  /// counter increment, inline.
  bool access_l1(cache::CoreId core, cache::Addr addr) {
    PLRUPART_ASSERT(core < l1d_.size());
    return l1d_[core].access(addr);
  }
  AccessLevel access_after_l1(cache::CoreId core, cache::Addr addr, bool write,
                              bool l1_hit, std::uint64_t now_cycles, L2Echo& echo) {
    PLRUPART_ASSERT(core < counters_.size());
    echo = L2Echo{};
    ++counters_[core].l1_accesses;
    if (l1_hit) return AccessLevel::kL1;
    return access_l2(core, addr, write, now_cycles, echo);
  }

  [[nodiscard]] const HierarchyConfig& config() const noexcept { return config_; }
  [[nodiscard]] core::PartitionedCacheSystem& l2() noexcept { return l2_; }
  [[nodiscard]] const core::PartitionedCacheSystem& l2() const noexcept { return l2_; }
  [[nodiscard]] const cache::LruFilter& l1d(cache::CoreId core) const;
  [[nodiscard]] const HierarchyCounters& counters(cache::CoreId core) const;
  [[nodiscard]] std::uint32_t num_cores() const noexcept { return config_.l2.num_cores; }

 private:
  /// An L1 miss: count it and access the shared L2, filling `echo`.
  AccessLevel access_l2(cache::CoreId core, cache::Addr addr, bool write,
                        std::uint64_t now_cycles, L2Echo& echo);

  HierarchyConfig config_;
  std::vector<cache::LruFilter> l1d_;
  core::PartitionedCacheSystem l2_;
  std::vector<HierarchyCounters> counters_;
};

}  // namespace plrupart::sim
