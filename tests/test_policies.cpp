// Fair, QoS and static partition functions.
#include <gtest/gtest.h>

#include "plrupart/core/fair.hpp"
#include "plrupart/core/min_misses.hpp"
#include "plrupart/core/partitioned_cache.hpp"
#include "plrupart/core/qos.hpp"
#include "plrupart/core/static_policy.hpp"

namespace plrupart::core {
namespace {

TEST(StaticEven, SplitsEvenlyWithRemainderToLowIds) {
  EXPECT_EQ(even_split(2, 16), (Partition{8, 8}));
  EXPECT_EQ(even_split(3, 16), (Partition{6, 5, 5}));
  EXPECT_EQ(even_split(5, 16), (Partition{4, 3, 3, 3, 3}));
  EXPECT_EQ(even_split(16, 16), Partition(16, 1));
}

TEST(StaticEven, IgnoresCurves) {
  const cache::Geometry geo{.size_bytes = 4096, .associativity = 4, .line_bytes = 64};
  CpaConfig cfg = CpaConfig::from_acronym("M-L", 2, geo);
  cfg.decide = [](const std::vector<MissCurve>& curves, std::uint32_t ways) {
    return even_split(static_cast<std::uint32_t>(curves.size()), ways);
  };
  cfg.sampling_ratio = 1;
  cfg.repartition_hysteresis = 0.0;
  PartitionedCacheSystem sys(cfg);
  // Core 0 cycles three lines of one set, so MinMisses would give it three
  // ways; core 1 touches a single line.
  for (std::uint64_t t = 0; t < 300; ++t) {
    (void)sys.access(0, (t % 3) * 1024, false, t);
    (void)sys.access(1, 64, false, t);
  }
  EXPECT_EQ(min_misses_optimal({sys.profiler(0).curve(), sys.profiler(1).curve()}, 4),
            (Partition{3, 1}));
  sys.controller_mut()->repartition_now(300);
  EXPECT_EQ(sys.current_partition(), (Partition{2, 2}));
}

TEST(Fair, EqualThreadsSplitEvenly) {
  const MissCurve c({100, 80, 60, 40, 30, 20, 10, 5, 0});
  const auto p = fair_partition({c, c}, 8);
  EXPECT_EQ(p, (Partition{4, 4}));
}

TEST(Fair, SufferingThreadGetsRelief) {
  // Thread 0 is devastated without ways (ratio misses(w)/misses(A) huge);
  // thread 1 barely cares.
  const MissCurve hurting({1000, 900, 700, 400, 200, 100, 40, 10, 9});
  const MissCurve content({100, 98, 97, 96, 95, 95, 95, 95, 95});
  const auto p = fair_partition({hurting, content}, 8);
  EXPECT_GT(p[0], p[1]);
  validate_partition(p, 8);
}

TEST(Fair, SlowdownProxyDefinition) {
  const MissCurve c({100, 50, 20, 10, 4});
  EXPECT_DOUBLE_EQ(slowdown_proxy(c, 4), 1.0);
  EXPECT_DOUBLE_EQ(slowdown_proxy(c, 1), 51.0 / 5.0);
}

TEST(Qos, ReservesMinimumWaysForTheTarget) {
  // Target thread reaches 1.1x its best miss count at 3 ways.
  const MissCurve target({1000, 500, 200, 105, 100});
  const MissCurve other({400, 300, 200, 100, 50});
  const auto p = qos_partition({target, other}, 4, QosTarget{.core = 0, .factor = 1.1});
  EXPECT_EQ(p[0], 3U);
  EXPECT_EQ(p[1], 1U);
}

TEST(Qos, TargetCanBeAnyCore) {
  const MissCurve target({1000, 500, 200, 105, 100});
  const MissCurve other({400, 300, 200, 100, 50});
  const auto p = qos_partition({other, target}, 4, QosTarget{.core = 1, .factor = 1.1});
  EXPECT_EQ(p[1], 3U);
}

TEST(Qos, CapLeavesOneWayPerOtherCore) {
  // Even an insatiable target cannot starve the others below 1 way each.
  const MissCurve insatiable({1000, 999, 998, 997, 996, 995, 994, 993, 992});
  const MissCurve other({10, 9, 8, 7, 6, 5, 4, 3, 2});
  const auto p =
      qos_partition({insatiable, other, other}, 8, QosTarget{.core = 0, .factor = 1.0});
  EXPECT_EQ(p[0], 6U);
  EXPECT_GE(p[1], 1U);
  EXPECT_GE(p[2], 1U);
  validate_partition(p, 8);
}

TEST(Qos, RemainingWaysDistributedByMinMisses) {
  const MissCurve target({100, 10, 10, 10, 10, 10, 10, 10, 10});  // happy with 1 way
  const MissCurve steep({800, 700, 600, 500, 400, 300, 200, 100, 0});
  const MissCurve flat({800, 800, 800, 800, 800, 800, 800, 800, 800});
  const auto p =
      qos_partition({target, steep, flat}, 8, QosTarget{.core = 0, .factor = 1.0});
  EXPECT_EQ(p[0], 1U);
  EXPECT_EQ(p[1], 6U) << "MinMisses gives the leftovers to the steep curve";
  EXPECT_EQ(p[2], 1U);
}

TEST(Qos, SingleThreadGetsEverything) {
  const MissCurve c({10, 8, 6, 4, 2});
  EXPECT_EQ(qos_partition({c}, 4, QosTarget{.core = 0, .factor = 2.0}), Partition{4});
}

TEST(Qos, RejectsFactorBelowOne) {
  const MissCurve c({10, 8, 6, 4, 2});
  EXPECT_THROW((void)qos_partition({c, c}, 4, QosTarget{.core = 0, .factor = 0.5}),
               InvariantError);
}

TEST(Qos, WaysForBudgetMonotoneInFactor) {
  const MissCurve c({1000, 500, 200, 105, 100});
  const auto strict = ways_for_budget(c, 1.0, 4);
  const auto loose = ways_for_budget(c, 3.0, 4);
  EXPECT_GE(strict, loose);
}

}  // namespace
}  // namespace plrupart::core
