// IntervalController: boundary firing, decay, history, partition enforcement.
#include "plrupart/core/controller.hpp"

#include <gtest/gtest.h>

#include "plrupart/core/min_misses.hpp"

namespace plrupart::core {
namespace {

cache::Geometry small_l2() {
  return cache::Geometry{.size_bytes = 8192, .associativity = 4, .line_bytes = 64};
}

Profiler lru_profiler() {
  return Profiler(small_l2(), cache::ReplacementKind::kLru, 1);
}

/// A two-core controller enforcing on a way-masked L2; applied() reads the
/// partition back from the L2's masks.
struct ControllerRig {
  explicit ControllerRig(std::uint64_t interval = 1000, double hysteresis = 0.0)
      : l2(small_l2(), cache::ReplacementKind::kLru, 2, cache::EnforcementMode::kWayMasks),
        controller(interval, min_misses_optimal, {lru_profiler(), lru_profiler()}, l2,
                   hysteresis) {}

  [[nodiscard]] Partition applied() const {
    return {mask_count(l2.way_mask(0)), mask_count(l2.way_mask(1))};
  }
  [[nodiscard]] Profiler& profiler(cache::CoreId core) {
    return controller.profiler_mut(core);
  }

  cache::SetAssocCache l2;
  IntervalController controller;
};

TEST(Controller, StartsWithEvenSplitApplied) {
  ControllerRig rig;
  EXPECT_EQ(rig.l2.way_mask(0), way_range_mask(0, 2));
  EXPECT_EQ(rig.l2.way_mask(1), way_range_mask(2, 2));
  EXPECT_EQ(rig.controller.current(), (Partition{2, 2}));
  EXPECT_TRUE(rig.controller.history().empty()) << "initial split is not an interval";
}

TEST(Controller, NoFiringBeforeBoundary) {
  ControllerRig rig(1000);
  EXPECT_FALSE(rig.controller.tick(0));
  EXPECT_FALSE(rig.controller.tick(999));
  EXPECT_TRUE(rig.controller.history().empty());
  EXPECT_EQ(rig.applied(), (Partition{2, 2}));
}

TEST(Controller, FiresAtEachBoundaryOnce) {
  ControllerRig rig(1000);
  EXPECT_TRUE(rig.controller.tick(1000));
  EXPECT_FALSE(rig.controller.tick(1500));
  EXPECT_TRUE(rig.controller.tick(2100));
  EXPECT_EQ(rig.controller.history().size(), 2U);
}

TEST(Controller, EnforcesEveryDecisionOnTheL2) {
  const auto g = small_l2();
  const auto line = [&](std::uint64_t tag) { return tag << ilog2_exact(g.sets()); };
  // Owner-counter enforcement receives the partition as quotas.
  cache::SetAssocCache quotas(g, cache::ReplacementKind::kLru, 2,
                              cache::EnforcementMode::kOwnerCounters);
  IntervalController counted(1000, min_misses_optimal, {lru_profiler(), lru_profiler()},
                             quotas);
  EXPECT_EQ(quotas.way_quota(0), 2U);
  EXPECT_EQ(quotas.way_quota(1), 2U);
  // Core 0 reuses 3 lines, core 1 streams: the decision moves to {3, 1}, and
  // later, with core 1 reusing 3 lines and core 0 idle, to {1, 3}.
  ControllerRig rig(1000);
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t t = 0; t < 3; ++t) {
      rig.profiler(0).record_access(line(t));
      counted.profiler_mut(0).record_access(line(t));
    }
  }
  for (std::uint64_t t = 0; t < 100; ++t) {
    rig.profiler(1).record_access(line(t + 100));
    counted.profiler_mut(1).record_access(line(t + 100));
  }
  ASSERT_TRUE(rig.controller.tick(1000));
  ASSERT_TRUE(counted.tick(1000));
  EXPECT_EQ(rig.controller.current(), (Partition{3, 1}));
  EXPECT_EQ(rig.applied(), (Partition{3, 1}));
  EXPECT_EQ(rig.l2.way_mask(0), way_range_mask(0, 3));
  EXPECT_EQ(quotas.way_quota(0), 3U);
  EXPECT_EQ(quotas.way_quota(1), 1U);
  for (int interval = 2; interval < 8; ++interval) {
    for (int round = 0; round < 200; ++round)
      for (std::uint64_t t = 0; t < 3; ++t) rig.profiler(1).record_access(line(t + 300));
    ASSERT_TRUE(rig.controller.tick(static_cast<std::uint64_t>(interval) * 1000));
    EXPECT_EQ(rig.applied(), rig.controller.current());
  }
  EXPECT_EQ(rig.controller.current(), (Partition{1, 3}));
}

TEST(Controller, SkippedBoundariesCollapseToOneFiring) {
  ControllerRig rig(1000);
  EXPECT_TRUE(rig.controller.tick(5500));  // jumped 5 boundaries
  EXPECT_EQ(rig.controller.history().size(), 1U);
  // Next boundary re-arms after the jump.
  EXPECT_FALSE(rig.controller.tick(5900));
  EXPECT_TRUE(rig.controller.tick(6001));
}

TEST(Controller, DueTracksTheBoundaryGrid) {
  ControllerRig rig(1000);
  EXPECT_FALSE(rig.controller.due(999));
  EXPECT_TRUE(rig.controller.due(1000));
  // A single tick re-arms one interval ahead.
  EXPECT_TRUE(rig.controller.tick(1000));
  EXPECT_FALSE(rig.controller.due(1999));
  EXPECT_TRUE(rig.controller.due(2000));
  // A stall that jumps several boundaries re-arms on the grid past it.
  EXPECT_TRUE(rig.controller.tick(5500));
  EXPECT_FALSE(rig.controller.due(5999));
  EXPECT_TRUE(rig.controller.due(6000));
  // due() is a pure query: asking never fires or re-arms.
  EXPECT_TRUE(rig.controller.due(6000));
  EXPECT_EQ(rig.controller.history().size(), 2U);
}

TEST(Controller, DecaysProfilersOnRepartition) {
  ControllerRig rig(1000);
  for (int i = 0; i < 8; ++i) rig.profiler(0).record_access(0);
  EXPECT_EQ(rig.profiler(0).sdh().reg(1), 7ULL);
  rig.controller.tick(1000);
  EXPECT_EQ(rig.profiler(0).sdh().reg(1), 3ULL) << "SDH halved at the boundary";
}

TEST(Controller, PartitionFollowsTheProfiles) {
  ControllerRig rig(1000);
  // Core 0 shows strong reuse at distance <= 3 (needs 3 ways); core 1 only
  // ever misses.
  const auto g = small_l2();
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t t = 0; t < 3; ++t)
      rig.profiler(0).record_access((t << ilog2_exact(g.sets())) | 0);
  }
  for (std::uint64_t t = 0; t < 100; ++t)
    rig.profiler(1).record_access(((t + 100) << ilog2_exact(g.sets())) | 0);
  rig.controller.tick(1000);
  const auto& p = rig.controller.current();
  EXPECT_EQ(p[0], 3U);
  EXPECT_EQ(p[1], 1U);
}

TEST(Controller, HistoryRecordsCycleStamps) {
  ControllerRig rig(500);
  rig.controller.tick(700);
  rig.controller.tick(1200);
  ASSERT_EQ(rig.controller.history().size(), 2U);
  EXPECT_EQ(rig.controller.history()[0].cycle, 700ULL);
  EXPECT_EQ(rig.controller.history()[1].cycle, 1200ULL);
}

TEST(Controller, HysteresisKeepsStandingPartitionOnMarginalGains) {
  // Core 0's profile justifies a 3/1 split, but only barely: with strong
  // damping the controller sticks to the even split.
  ControllerRig rig(1000, /*hysteresis=*/0.9);
  const auto g = small_l2();
  for (int round = 0; round < 30; ++round) {
    for (std::uint64_t t = 0; t < 3; ++t)
      rig.profiler(0).record_access((t << ilog2_exact(g.sets())) | 0);
  }
  for (std::uint64_t t = 0; t < 30; ++t)
    rig.profiler(1).record_access(((t + 100) << ilog2_exact(g.sets())) | 0);
  rig.controller.tick(1000);
  EXPECT_EQ(rig.controller.current(), (Partition{2, 2}))
      << "marginal improvement must not flip the partition under damping";
}

TEST(Controller, HysteresisYieldsToDecisiveGains) {
  ControllerRig rig(1000, /*hysteresis=*/0.10);
  const auto g = small_l2();
  // Core 0 hits at distance 3 on nearly every access; keeping it at 2 ways
  // would forfeit almost everything.
  for (int round = 0; round < 500; ++round) {
    for (std::uint64_t t = 0; t < 3; ++t)
      rig.profiler(0).record_access((t << ilog2_exact(g.sets())) | 0);
  }
  for (std::uint64_t t = 0; t < 20; ++t)
    rig.profiler(1).record_access(((t + 100) << ilog2_exact(g.sets())) | 0);
  rig.controller.tick(1000);
  EXPECT_EQ(rig.controller.current(), (Partition{3, 1}));
}

TEST(Controller, HysteresisStillRecordsHistory) {
  ControllerRig rig(1000, /*hysteresis=*/0.9);
  rig.controller.tick(1000);
  rig.controller.tick(2000);
  EXPECT_EQ(rig.controller.history().size(), 2U);
}

TEST(Controller, RejectsBadHysteresis) {
  cache::SetAssocCache l2(small_l2(), cache::ReplacementKind::kLru, 1,
                          cache::EnforcementMode::kWayMasks);
  EXPECT_THROW(IntervalController(100, min_misses_optimal, {lru_profiler()}, l2, 1.0),
               InvariantError);
  EXPECT_THROW(IntervalController(100, min_misses_optimal, {lru_profiler()}, l2, -0.1),
               InvariantError);
}

TEST(Controller, RejectsDegenerateConstruction) {
  cache::SetAssocCache l2(small_l2(), cache::ReplacementKind::kLru, 1,
                          cache::EnforcementMode::kWayMasks);
  EXPECT_THROW(IntervalController(0, min_misses_optimal, {lru_profiler()}, l2),
               InvariantError);
  EXPECT_THROW(IntervalController(100, nullptr, {lru_profiler()}, l2), InvariantError);
  EXPECT_THROW(IntervalController(100, min_misses_optimal, {}, l2), InvariantError);
  EXPECT_THROW(
      IntervalController(100, min_misses_optimal, {lru_profiler(), lru_profiler()}, l2),
      InvariantError)
      << "one profiler per L2 core";
}

}  // namespace
}  // namespace plrupart::core
