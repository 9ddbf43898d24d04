// MinMisses partition selection (paper §II-B, after Qureshi & Patt [22]):
// assign ways to minimize the total predicted miss count, at least one way per
// thread. Three interchangeable solvers:
//
//   * optimal  — exact dynamic program (min_cost_partition), O(N * A^2);
//                cheap at hardware scales (N <= 8, A <= 64) and the library
//                default.
//   * greedy   — classical marginal-utility hill climb; equals the optimum on
//                convex curves, may lose on non-convex ones.
//   * lookahead— UCP's fix for non-convexity: award the block of ways with the
//                highest average marginal utility each round.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>

#include "plrupart/core/partition.hpp"

namespace plrupart::core {

[[nodiscard]] PLRUPART_EXPORT Partition min_misses_optimal(const std::vector<MissCurve>& curves,
                                           std::uint32_t total_ways);
[[nodiscard]] PLRUPART_EXPORT Partition min_misses_greedy(const std::vector<MissCurve>& curves,
                                          std::uint32_t total_ways);
[[nodiscard]] PLRUPART_EXPORT Partition min_misses_lookahead(const std::vector<MissCurve>& curves,
                                             std::uint32_t total_ways);

}  // namespace plrupart::core
