#include "plrupart/core/tree_rounding.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace plrupart::core {

Partition round_to_pow2_partition(const Partition& ideal, std::uint32_t total_ways) {
  validate_partition(ideal, total_ways);
  PLRUPART_ASSERT(is_pow2(total_ways));
  const auto n = ideal.size();

  // Floor every allocation to a power of two. Since 2^floor(log2(w)) <= w the
  // running sum stays <= total_ways.
  Partition p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint32_t>(floor_pow2(ideal[i]));
  std::uint32_t sum = std::accumulate(p.begin(), p.end(), 0U);

  // Grow until the budget is exactly consumed. At every step some block of
  // size <= total_ways - sum exists: every block is a power of two, so sum is
  // a multiple of the smallest block b, and so is total_ways (a power of two
  // >= b); the positive gap is then a multiple of b, hence >= b. Doubling the
  // most-deprived eligible core therefore always makes progress.
  while (sum < total_ways) {
    const std::uint32_t gap = total_ways - sum;
    std::size_t best = n;
    double best_deficit = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (p[i] > gap) continue;  // doubling would overshoot
      const double deficit =
          static_cast<double>(ideal[i]) / static_cast<double>(p[i]);
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = i;
      }
    }
    PLRUPART_ASSERT_MSG(best < n, "no doubling candidate: Kraft argument violated");
    sum += p[best];
    p[best] *= 2;
  }
  validate_partition(p, total_ways);
  return p;
}

std::vector<WayMask> place_pow2_blocks(const Partition& pow2_sizes,
                                       std::uint32_t total_ways) {
  validate_partition(pow2_sizes, total_ways);
  for (const auto s : pow2_sizes) PLRUPART_ASSERT_MSG(is_pow2(s), "block not a power of two");

  // Largest-first placement at the lowest free aligned offset. With Kraft
  // equality this always tiles exactly (buddy allocation with no frees).
  std::vector<std::size_t> order(pow2_sizes.size());
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pow2_sizes[a] > pow2_sizes[b];
  });

  std::vector<WayMask> masks(pow2_sizes.size(), 0);
  std::uint32_t cursor = 0;
  for (const std::size_t i : order) {
    const std::uint32_t size = pow2_sizes[i];
    PLRUPART_ASSERT_MSG(cursor % size == 0, "buddy placement lost alignment");
    masks[i] = way_range_mask(cursor, size);
    cursor += size;
  }
  PLRUPART_ASSERT(cursor == total_ways);
  return masks;
}

Partition min_misses_tree(const std::vector<MissCurve>& curves,
                          std::uint32_t total_ways) {
  PLRUPART_ASSERT(!curves.empty());
  PLRUPART_ASSERT(curves.size() <= total_ways);
  PLRUPART_ASSERT(is_pow2(total_ways));
  const auto n = static_cast<std::uint32_t>(curves.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Same DP as min_misses_optimal, with allocations restricted to powers of
  // two. Kraft equality (exact budget) is enforced by the DP itself; any such
  // multiset is placeable as aligned blocks (place_pow2_blocks).
  std::vector<std::vector<double>> f(n + 1, std::vector<double>(total_ways + 1, kInf));
  std::vector<std::vector<std::uint32_t>> choice(n,
                                                 std::vector<std::uint32_t>(total_ways + 1, 0));
  f[n][0] = 0.0;
  for (std::uint32_t i = n; i-- > 0;) {
    for (std::uint32_t b = 1; b <= total_ways; ++b) {
      for (std::uint32_t w = 1; w <= b; w *= 2) {
        if (f[i + 1][b - w] == kInf) continue;
        const double cost = curves[i].misses(w) + f[i + 1][b - w];
        if (cost < f[i][b]) {
          f[i][b] = cost;
          choice[i][b] = w;
        }
      }
    }
  }
  PLRUPART_ASSERT_MSG(f[0][total_ways] < kInf, "no tree-feasible partition found");

  Partition p(n);
  std::uint32_t b = total_ways;
  for (std::uint32_t i = 0; i < n; ++i) {
    p[i] = choice[i][b];
    b -= p[i];
  }
  validate_partition(p, total_ways);
  return p;
}

TreeEnforcement make_tree_enforcement(const cache::TreePlru& tree,
                                      const Partition& pow2_sizes,
                                      std::uint32_t total_ways) {
  TreeEnforcement out;
  out.masks = place_pow2_blocks(pow2_sizes, total_ways);
  out.vectors.reserve(out.masks.size());
  for (const WayMask m : out.masks) {
    const auto fv = tree.derive_force_vectors(m);
    PLRUPART_ASSERT_MSG(fv.has_value(), "pow2 block must be vector-expressible");
    out.vectors.push_back(*fv);
  }
  return out;
}

}  // namespace plrupart::core
