#include "plrupart/core/min_misses.hpp"

namespace plrupart::core {

namespace {
void check_inputs(const std::vector<MissCurve>& curves, std::uint32_t total_ways) {
  PLRUPART_ASSERT(!curves.empty());
  PLRUPART_ASSERT_MSG(curves.size() <= total_ways,
                      "more cores than ways: cannot give each a way");
  for (const auto& c : curves) PLRUPART_ASSERT(c.max_ways() >= total_ways);
}
}  // namespace

Partition min_misses_optimal(const std::vector<MissCurve>& curves,
                             std::uint32_t total_ways) {
  check_inputs(curves, total_ways);
  return min_cost_partition(
      static_cast<std::uint32_t>(curves.size()), total_ways,
      [&](std::uint32_t core, std::uint32_t ways) { return curves[core].misses(ways); });
}

Partition min_misses_greedy(const std::vector<MissCurve>& curves,
                            std::uint32_t total_ways) {
  check_inputs(curves, total_ways);
  const auto n = static_cast<std::uint32_t>(curves.size());
  Partition p(n, 1);
  std::uint32_t remaining = total_ways - n;
  while (remaining > 0) {
    std::uint32_t best = 0;
    double best_gain = -1.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (p[i] >= total_ways) continue;
      const double gain = curves[i].marginal_gain(p[i]);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    ++p[best];
    --remaining;
  }
  validate_partition(p, total_ways);
  return p;
}

Partition min_misses_lookahead(const std::vector<MissCurve>& curves,
                               std::uint32_t total_ways) {
  check_inputs(curves, total_ways);
  const auto n = static_cast<std::uint32_t>(curves.size());
  Partition p(n, 1);
  std::uint32_t remaining = total_ways - n;
  while (remaining > 0) {
    // For each core, the block size k maximizing average utility
    // (misses(w) - misses(w+k)) / k over k <= remaining.
    std::uint32_t best_core = 0;
    std::uint32_t best_k = 1;
    double best_mu = -1.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t k = 1; k <= remaining && p[i] + k <= total_ways; ++k) {
        const double mu =
            (curves[i].misses(p[i]) - curves[i].misses(p[i] + k)) / static_cast<double>(k);
        if (mu > best_mu) {
          best_mu = mu;
          best_core = i;
          best_k = k;
        }
      }
    }
    p[best_core] += best_k;
    remaining -= best_k;
  }
  validate_partition(p, total_ways);
  return p;
}

}  // namespace plrupart::core
