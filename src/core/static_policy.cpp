#include "plrupart/core/static_policy.hpp"

namespace plrupart::core {

Partition even_split(std::uint32_t n, std::uint32_t total_ways) {
  PLRUPART_ASSERT(n >= 1 && n <= total_ways);
  Partition p(n, total_ways / n);
  for (std::uint32_t i = 0; i < total_ways % n; ++i) ++p[i];
  validate_partition(p, total_ways);
  return p;
}

}  // namespace plrupart::core
