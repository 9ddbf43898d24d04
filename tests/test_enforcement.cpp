// Partition enforcement: way masks and owner counters. The central invariant
// (paper §II-B): a thread may HIT anywhere but may only EVICT within its
// assigned ways/quota.
#include <gtest/gtest.h>

#include "plrupart/cache/cache.hpp"
#include "plrupart/common/rng.hpp"

namespace plrupart::cache {
namespace {

Geometry tiny() {
  return Geometry{.size_bytes = 2048, .associativity = 8, .line_bytes = 64};
}

Addr addr_of(const Geometry& g, std::uint64_t set, std::uint64_t tag) {
  return ((tag << ilog2_exact(g.sets())) | set) * g.line_bytes;
}

class WayMaskEnforcement : public ::testing::TestWithParam<ReplacementKind> {};

TEST_P(WayMaskEnforcement, MissesOnlyFillAssignedWays) {
  const auto g = tiny();
  SetAssocCache c(g, GetParam(), 2, EnforcementMode::kWayMasks, 3);
  c.set_way_mask(0, way_range_mask(0, 3));
  c.set_way_mask(1, way_range_mask(3, 5));
  Rng rng(9);
  for (int i = 0; i < 8000; ++i) {
    const CoreId core = rng.next_bool(0.5) ? 1U : 0U;
    const Addr a = addr_of(g, rng.next_below(g.sets()), rng.next_below(32));
    const auto out = c.access(core, a, false);
    if (!out.hit) {
      ASSERT_TRUE(mask_test(c.way_mask(core), out.way))
          << to_string(GetParam()) << ": core " << core << " filled way " << out.way;
    }
  }
}

TEST_P(WayMaskEnforcement, HitsAllowedOutsideOwnMask) {
  const auto g = tiny();
  SetAssocCache c(g, GetParam(), 2, EnforcementMode::kWayMasks, 3);
  c.set_way_mask(0, way_range_mask(0, 4));
  c.set_way_mask(1, way_range_mask(4, 4));
  const Addr a = addr_of(g, 0, 7);
  const auto fill = c.access(0, a, false);
  ASSERT_FALSE(fill.hit);
  ASSERT_LT(fill.way, 4U);
  // Core 1 touches the same line: must hit in core 0's territory.
  const auto hit = c.access(1, a, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.way, fill.way);
}

TEST_P(WayMaskEnforcement, RepartitioningTakesEffectForNewMisses) {
  const auto g = tiny();
  SetAssocCache c(g, GetParam(), 2, EnforcementMode::kWayMasks, 3);
  c.set_way_mask(0, way_range_mask(0, 4));
  c.set_way_mask(1, way_range_mask(4, 4));
  c.access(0, addr_of(g, 0, 1), false);
  // Shrink core 0 to a single way.
  c.set_way_mask(0, way_range_mask(0, 1));
  c.set_way_mask(1, way_range_mask(1, 7));
  for (std::uint64_t t = 10; t < 20; ++t) {
    const auto out = c.access(0, addr_of(g, 0, t), false);
    if (!out.hit) {
      ASSERT_EQ(out.way, 0U);
    }
  }
}

std::string enforcement_param_name(
    const ::testing::TestParamInfo<ReplacementKind>& param_info) {
  return to_string(param_info.param);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WayMaskEnforcement,
                         ::testing::Values(ReplacementKind::kLru, ReplacementKind::kNru,
                                           ReplacementKind::kTreePlru,
                                           ReplacementKind::kRandom,
                                           ReplacementKind::kSrrip),
                         enforcement_param_name);

TEST(WayMasks, RejectEmptyMaskAndWrongMode) {
  SetAssocCache masked(tiny(), ReplacementKind::kLru, 2, EnforcementMode::kWayMasks);
  EXPECT_THROW(masked.set_way_mask(0, 0), InvariantError);
  SetAssocCache counters(tiny(), ReplacementKind::kLru, 2, EnforcementMode::kOwnerCounters);
  EXPECT_THROW(counters.set_way_mask(0, 1), InvariantError);
  EXPECT_THROW(masked.set_way_quota(0, 4), InvariantError);
}

// --- Owner counters (paper §II-B.1) ----------------------------------------

TEST(OwnerCounters, CountsNeverExceedTheSet) {
  const auto g = tiny();
  SetAssocCache c(g, ReplacementKind::kLru, 2, EnforcementMode::kOwnerCounters);
  c.set_way_quota(0, 5);
  c.set_way_quota(1, 3);
  Rng rng(17);
  for (int i = 0; i < 6000; ++i) {
    const CoreId core = rng.next_bool(0.5) ? 1U : 0U;
    c.access(core, addr_of(g, rng.next_below(g.sets()), rng.next_below(24)), false);
    if (i % 100 == 0) {
      for (std::uint64_t s = 0; s < g.sets(); ++s) {
        ASSERT_LE(c.owned_in_set(s, 0) + c.owned_in_set(s, 1), g.associativity);
      }
    }
  }
}

TEST(OwnerCounters, QuotasConvergeToSteadyState) {
  // Two cores hammer the same sets with disjoint data; with quotas 6/2 the
  // per-set occupancy must settle at (or around) the quota split.
  const auto g = tiny();
  SetAssocCache c(g, ReplacementKind::kLru, 2, EnforcementMode::kOwnerCounters);
  c.set_way_quota(0, 6);
  c.set_way_quota(1, 2);
  Rng rng(3);
  for (int i = 0; i < 40000; ++i) {
    const CoreId core = rng.next_bool(0.5) ? 1U : 0U;
    const std::uint64_t tag = (core == 0 ? 100 : 200) + rng.next_below(16);
    c.access(core, addr_of(g, rng.next_below(g.sets()), tag), false);
  }
  for (std::uint64_t s = 0; s < g.sets(); ++s) {
    EXPECT_LE(c.owned_in_set(s, 1), 3U) << "core 1 exceeded its 2-way quota in set " << s;
    EXPECT_GE(c.owned_in_set(s, 0), 5U) << "core 0 starved below its 6-way quota in set " << s;
  }
}

TEST(OwnerCounters, UnderQuotaCoreStealsFromOthers) {
  const auto g = tiny();
  SetAssocCache c(g, ReplacementKind::kLru, 2, EnforcementMode::kOwnerCounters);
  c.set_way_quota(0, 4);
  c.set_way_quota(1, 4);
  // Core 0 fills the whole set.
  for (std::uint64_t t = 0; t < 8; ++t) c.access(0, addr_of(g, 0, t), false);
  EXPECT_EQ(c.owned_in_set(0, 0), 8U);
  // Core 1's first miss must evict a core-0 line (it is under quota).
  const auto out = c.access(1, addr_of(g, 0, 50), false);
  ASSERT_TRUE(out.evicted_valid);
  EXPECT_EQ(out.evicted_owner, 0U);
  EXPECT_EQ(c.owned_in_set(0, 1), 1U);
  EXPECT_EQ(c.owned_in_set(0, 0), 7U);
}

TEST(OwnerCounters, AtQuotaCoreEvictsItself) {
  const auto g = tiny();
  SetAssocCache c(g, ReplacementKind::kLru, 2, EnforcementMode::kOwnerCounters);
  c.set_way_quota(0, 4);
  c.set_way_quota(1, 4);
  for (std::uint64_t t = 0; t < 4; ++t) c.access(0, addr_of(g, 0, t), false);
  for (std::uint64_t t = 10; t < 14; ++t) c.access(1, addr_of(g, 0, t), false);
  // Core 1 is exactly at quota: its next miss evicts one of its own lines.
  const auto out = c.access(1, addr_of(g, 0, 99), false);
  ASSERT_TRUE(out.evicted_valid);
  EXPECT_EQ(out.evicted_owner, 1U);
  EXPECT_EQ(c.owned_in_set(0, 1), 4U);
}

}  // namespace
}  // namespace plrupart::cache
