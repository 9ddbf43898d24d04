// MinMisses solvers: the DP is exact (checked against brute force), greedy
// matches it on convex curves, lookahead repairs greedy's non-convex failure.
#include "plrupart/core/min_misses.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>

#include "plrupart/common/rng.hpp"

namespace plrupart::core {
namespace {

MissCurve random_curve(Rng& rng, std::uint32_t ways, double start) {
  std::vector<double> v(ways + 1);
  v[0] = start;
  for (std::uint32_t w = 1; w <= ways; ++w) {
    v[w] = v[w - 1] - rng.next_double() * (v[w - 1] / 4.0);
  }
  return MissCurve(std::move(v));
}

/// Exhaustive minimum over all valid partitions.
double brute_force_cost(const std::vector<MissCurve>& curves, std::uint32_t total) {
  double best = std::numeric_limits<double>::infinity();
  Partition p(curves.size(), 1);
  std::function<void(std::size_t, std::uint32_t)> rec = [&](std::size_t i,
                                                            std::uint32_t left) {
    if (i + 1 == curves.size()) {
      p[i] = left;
      best = std::min(best, partition_cost(curves, p));
      return;
    }
    const auto remaining_cores = static_cast<std::uint32_t>(curves.size() - i - 1);
    for (std::uint32_t w = 1; w + remaining_cores <= left; ++w) {
      p[i] = w;
      rec(i + 1, left - w);
    }
  };
  rec(0, total);
  return best;
}

TEST(MinMissesOptimal, MatchesBruteForceOnRandomCurves) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(rng.next_below(3));  // 2..4
    const std::uint32_t ways = 8;
    std::vector<MissCurve> curves;
    curves.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
      curves.push_back(random_curve(rng, ways, 1000.0 + rng.next_double() * 9000.0));
    const auto p = min_misses_optimal(curves, ways);
    validate_partition(p, ways);
    EXPECT_NEAR(partition_cost(curves, p), brute_force_cost(curves, ways), 1e-6)
        << "trial " << trial;
  }
}

TEST(MinMissesOptimal, SensitiveThreadGetsTheWays) {
  // Thread 0's curve is steep (each way saves 100 misses); thread 1 is a
  // thrasher whose curve is flat.
  const MissCurve steep({800, 700, 600, 500, 400, 300, 200, 100, 0});
  const MissCurve flat({800, 800, 800, 800, 800, 800, 800, 800, 800});
  const auto p = min_misses_optimal({steep, flat}, 8);
  EXPECT_EQ(p[0], 7U);
  EXPECT_EQ(p[1], 1U);
}

TEST(MinMissesOptimal, SingleThreadTakesAll) {
  const auto p = min_misses_optimal({MissCurve({10, 5, 2, 1, 0})}, 4);
  ASSERT_EQ(p.size(), 1U);
  EXPECT_EQ(p[0], 4U);
}

TEST(MinMissesOptimal, MoreCoresThanWaysRejected) {
  const MissCurve c({4, 3, 2, 1, 1});
  EXPECT_THROW((void)min_misses_optimal({c, c, c, c, c}, 4), InvariantError);
}

TEST(MinMissesGreedy, EqualsOptimalOnConvexCurves) {
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<MissCurve> curves;
    for (int i = 0; i < 3; ++i) {
      // Convex by construction: marginal gains shrink monotonically.
      std::vector<double> v(9);
      double gain = 100.0 + rng.next_double() * 100.0;
      v[0] = 2000.0;
      for (std::uint32_t w = 1; w <= 8; ++w) {
        v[w] = v[w - 1] - gain;
        gain *= 0.5 + rng.next_double() * 0.4;  // decreasing
      }
      curves.emplace_back(std::move(v));
      ASSERT_TRUE(curves.back().is_convex());
    }
    const auto pg = min_misses_greedy(curves, 8);
    const auto po = min_misses_optimal(curves, 8);
    EXPECT_NEAR(partition_cost(curves, pg), partition_cost(curves, po), 1e-9);
  }
}

TEST(MinMissesLookahead, BeatsGreedyOnKneeCurves) {
  // Thread 0 gains nothing until it owns 4 ways, then everything (a knee):
  // plain greedy never sees the cliff; lookahead's average utility does.
  const MissCurve knee({1000, 1000, 1000, 1000, 0, 0, 0, 0, 0});
  const MissCurve gentle({400, 350, 300, 250, 200, 150, 100, 50, 0});
  const auto pl = min_misses_lookahead({knee, gentle}, 8);
  const auto pg = min_misses_greedy({knee, gentle}, 8);
  EXPECT_LE(partition_cost({knee, gentle}, pl), partition_cost({knee, gentle}, pg));
  EXPECT_GE(pl[0], 4U) << "lookahead must discover the knee";
}

TEST(MinMissesLookahead, ValidOnRandomCurves) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<MissCurve> curves;
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(rng.next_below(5));
    for (std::uint32_t i = 0; i < n; ++i) curves.push_back(random_curve(rng, 16, 5000));
    const auto p = min_misses_lookahead(curves, 16);
    validate_partition(p, 16);
    // Never worse than the all-equal static split.
    const Partition even(n, 16 / n);
    if (16 % n == 0) {
      EXPECT_LE(partition_cost(curves, p), partition_cost(curves, even) + 1e-9);
    }
  }
}

// min_cost_partition against exhaustive enumeration. Integer costs keep every
// sum exact, so ties are real ties: small ranges make them common, negative
// values mimic the IPC objectives, and +inf entries cut gaps into the table
// (some tables admit no finite split at all).
TEST(MinCostPartition, MatchesExhaustiveEnumerationWithItsTieRule) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(2024);
  int finite_cases = 0;
  for (std::uint32_t n = 1; n <= 4; ++n) {
    for (std::uint32_t total = n; total <= 16; ++total) {
      for (const bool pow2_only : {false, true}) {
        for (int trial = 0; trial < 4; ++trial) {
          // table[i][w], w in [1, total]; index 0 unused.
          std::vector<std::vector<double>> table(n, std::vector<double>(total + 1));
          for (auto& row : table) {
            for (std::uint32_t w = 1; w <= total; ++w) {
              row[w] = rng.next_below(8) == 0
                           ? kInf
                           : static_cast<double>(rng.next_below(13)) - 6.0;
            }
          }
          const auto cost = [&](std::uint32_t core, std::uint32_t ways) {
            return table[core][ways];
          };

          // Splits in lexicographic order; the first strict minimum wins,
          // which is the lexicographically smallest optimal split.
          double best = kInf;
          Partition best_p;
          Partition p(n);
          std::function<void(std::uint32_t, std::uint32_t)> rec = [&](std::uint32_t i,
                                                                     std::uint32_t left) {
            if (i == n) {
              if (left != 0) return;
              double sum = 0.0;  // the DP's association: c0 + (c1 + (... + 0))
              for (std::uint32_t k = n; k-- > 0;) sum = cost(k, p[k]) + sum;
              if (sum < best) {
                best = sum;
                best_p = p;
              }
              return;
            }
            for (std::uint32_t w = 1; w <= left; ++w) {
              if (pow2_only && !is_pow2(w)) continue;
              p[i] = w;
              rec(i + 1, left - w);
            }
          };
          rec(0, total);

          if (best_p.empty()) {
            EXPECT_THROW((void)min_cost_partition(n, total, cost, pow2_only),
                         InvariantError)
                << "n=" << n << " total=" << total << " pow2=" << pow2_only;
            continue;
          }
          ++finite_cases;
          EXPECT_EQ(min_cost_partition(n, total, cost, pow2_only), best_p)
              << "n=" << n << " total=" << total << " pow2=" << pow2_only
              << " trial=" << trial;
        }
      }
    }
  }
  EXPECT_GT(finite_cases, 300);
}

TEST(MinCostPartition, RejectsMoreCoresThanWays) {
  const auto zero = [](std::uint32_t, std::uint32_t) { return 0.0; };
  EXPECT_THROW((void)min_cost_partition(5, 4, zero), InvariantError);
  EXPECT_THROW((void)min_cost_partition(0, 4, zero), InvariantError);
}

TEST(PartitionHelpers, ContiguousMasksTile) {
  const auto masks = contiguous_masks({3, 1, 4});
  EXPECT_EQ(masks[0], way_range_mask(0, 3));
  EXPECT_EQ(masks[1], way_range_mask(3, 1));
  EXPECT_EQ(masks[2], way_range_mask(4, 4));
  WayMask all = 0;
  for (const auto m : masks) {
    EXPECT_EQ(all & m, 0ULL) << "masks must be disjoint";
    all |= m;
  }
  EXPECT_EQ(all, full_way_mask(8));
}

TEST(PartitionHelpers, ValidationCatchesBadPartitions) {
  EXPECT_THROW(validate_partition({}, 4), InvariantError);
  EXPECT_THROW(validate_partition({0, 4}, 4), InvariantError);
  EXPECT_THROW(validate_partition({2, 3}, 4), InvariantError);
  validate_partition({1, 3}, 4);  // fine
}

}  // namespace
}  // namespace plrupart::core
