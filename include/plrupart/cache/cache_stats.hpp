// Per-core and aggregate cache statistics.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <vector>

namespace plrupart::cache {

struct PLRUPART_EXPORT CoreCacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  /// Misses that evicted a valid line belonging to a *different* core —
  /// the inter-thread interference the partitioning logic exists to control.
  std::uint64_t cross_evictions = 0;
  /// Misses that evicted one of the core's own valid lines.
  std::uint64_t self_evictions = 0;

  [[nodiscard]] double miss_rate() const noexcept {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }
};

struct PLRUPART_EXPORT CacheStatsBundle {
  explicit CacheStatsBundle(std::uint32_t cores) : per_core(cores) {}

  std::vector<CoreCacheStats> per_core;

  [[nodiscard]] CoreCacheStats total() const {
    CoreCacheStats t;
    for (const auto& c : per_core) {
      t.accesses += c.accesses;
      t.hits += c.hits;
      t.misses += c.misses;
      t.writes += c.writes;
      t.cross_evictions += c.cross_evictions;
      t.self_evictions += c.self_evictions;
    }
    return t;
  }
};

}  // namespace plrupart::cache
