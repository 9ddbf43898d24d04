#include "plrupart/core/partition.hpp"

#include <limits>

namespace plrupart::core {

Partition min_cost_partition(
    std::uint32_t cores, std::uint32_t total_ways,
    const std::function<double(std::uint32_t core, std::uint32_t ways)>& cost,
    bool pow2_only) {
  PLRUPART_ASSERT(cores >= 1);
  PLRUPART_ASSERT_MSG(cores <= total_ways,
                      "more cores than ways: cannot give each a way");
  const std::uint32_t n = cores;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // f[i][b] = min cost for cores [i, n) sharing exactly b ways.
  // choice[i][b] = the (smallest optimal) allocation of core i.
  std::vector<std::vector<double>> f(n + 1, std::vector<double>(total_ways + 1, kInf));
  std::vector<std::vector<std::uint32_t>> choice(
      n, std::vector<std::uint32_t>(total_ways + 1, 0));
  f[n][0] = 0.0;
  for (std::uint32_t i = n; i-- > 0;) {
    const std::uint32_t remaining_cores = n - i - 1;
    for (std::uint32_t b = remaining_cores + 1; b <= total_ways; ++b) {
      const std::uint32_t w_max = b - remaining_cores;
      for (std::uint32_t w = 1; w <= w_max; w = pow2_only ? 2 * w : w + 1) {
        const double c = cost(i, w) + f[i + 1][b - w];
        if (c < f[i][b]) {
          f[i][b] = c;
          choice[i][b] = w;
        }
      }
    }
  }
  PLRUPART_ASSERT_MSG(f[0][total_ways] < kInf, "no finite-cost partition found");

  Partition p(n);
  std::uint32_t b = total_ways;
  for (std::uint32_t i = 0; i < n; ++i) {
    p[i] = choice[i][b];
    b -= p[i];
  }
  validate_partition(p, total_ways);
  return p;
}

}  // namespace plrupart::core
