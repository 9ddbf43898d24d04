#include "plrupart/core/qos.hpp"

#include "plrupart/core/min_misses.hpp"

namespace plrupart::core {

std::uint32_t ways_for_budget(const MissCurve& c, double factor, std::uint32_t cap) {
  const double budget = factor * c.misses(c.max_ways());
  for (std::uint32_t w = 1; w <= cap; ++w) {
    if (c.misses(w) <= budget) return w;
  }
  return cap;
}

Partition qos_partition(const std::vector<MissCurve>& curves, std::uint32_t total_ways,
                        QosTarget target) {
  PLRUPART_ASSERT(target.factor >= 1.0);
  PLRUPART_ASSERT(!curves.empty());
  PLRUPART_ASSERT(curves.size() <= total_ways);
  PLRUPART_ASSERT(target.core < curves.size());
  const auto n = static_cast<std::uint32_t>(curves.size());

  if (n == 1) return Partition{total_ways};

  const std::uint32_t others = n - 1;
  const std::uint32_t cap = total_ways - others;  // leave one way per other core
  const std::uint32_t reserved =
      ways_for_budget(curves[target.core], target.factor, cap);

  // MinMisses over the remaining threads and ways.
  std::vector<MissCurve> rest;
  rest.reserve(others);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i != target.core) rest.push_back(curves[i]);
  }
  const Partition rest_part = min_misses_optimal(rest, total_ways - reserved);

  Partition p(n);
  std::uint32_t j = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    p[i] = (i == target.core) ? reserved : rest_part[j++];
  }
  validate_partition(p, total_ways);
  return p;
}

}  // namespace plrupart::core
