#include "plrupart/core/fair.hpp"

namespace plrupart::core {

Partition fair_partition(const std::vector<MissCurve>& curves, std::uint32_t total_ways) {
  PLRUPART_ASSERT(!curves.empty());
  PLRUPART_ASSERT(curves.size() <= total_ways);
  const auto n = static_cast<std::uint32_t>(curves.size());
  Partition p(n, 1);
  std::uint32_t remaining = total_ways - n;
  while (remaining > 0) {
    std::uint32_t worst = 0;
    double worst_ratio = -1.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      // A thread whose curve is already flat gains nothing from more ways;
      // skip it unless everyone is flat.
      const double ratio = slowdown_proxy(curves[i], p[i]);
      const bool can_improve = curves[i].marginal_gain(p[i]) > 0.0;
      const double keyed = can_improve ? ratio : ratio - 1e9;
      if (keyed > worst_ratio) {
        worst_ratio = keyed;
        worst = i;
      }
    }
    ++p[worst];
    --remaining;
  }
  validate_partition(p, total_ways);
  return p;
}

}  // namespace plrupart::core
