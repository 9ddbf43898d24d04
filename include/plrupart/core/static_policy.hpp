// Static even split: the no-profiling baseline partition.
#pragma once

#include "plrupart/export.hpp"

#include "plrupart/core/partition.hpp"

namespace plrupart::core {

/// Even split of `total_ways` among n cores, remainder to the lowest ids
/// (a static CpaConfig::decide, and every controller's split before the
/// first interval).
[[nodiscard]] PLRUPART_EXPORT Partition even_split(std::uint32_t n,
                                                   std::uint32_t total_ways);

}  // namespace plrupart::core
