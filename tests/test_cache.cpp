// SetAssocCache behavior: hits, misses, fills, eviction bookkeeping, stats.
#include "plrupart/cache/cache.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "plrupart/common/rng.hpp"

namespace plrupart::cache {
namespace {

Geometry tiny() {
  // 4 sets x 4 ways x 64B lines.
  return Geometry{.size_bytes = 1024, .associativity = 4, .line_bytes = 64};
}

Addr addr_of(const Geometry& g, std::uint64_t set, std::uint64_t tag) {
  return ((tag << ilog2_exact(g.sets())) | set) * g.line_bytes;
}

TEST(Cache, ColdMissThenHit) {
  SetAssocCache c(tiny(), ReplacementKind::kLru, 1, EnforcementMode::kNone);
  const auto first = c.access(0, 0x100, false);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.evicted_valid);
  const auto second = c.access(0, 0x100, false);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.way, first.way);
  EXPECT_EQ(c.stats().per_core[0].accesses, 2ULL);
  EXPECT_EQ(c.stats().per_core[0].hits, 1ULL);
  EXPECT_EQ(c.stats().per_core[0].misses, 1ULL);
}

TEST(Cache, SameLineDifferentByteOffsetsHit) {
  SetAssocCache c(tiny(), ReplacementKind::kLru, 1, EnforcementMode::kNone);
  c.access(0, 0x100, false);
  EXPECT_TRUE(c.access(0, 0x13F, false).hit);  // same 64B line
  EXPECT_FALSE(c.access(0, 0x140, false).hit); // next line
}

TEST(Cache, FillsAllWaysBeforeEvicting) {
  const auto g = tiny();
  SetAssocCache c(g, ReplacementKind::kLru, 1, EnforcementMode::kNone);
  std::set<std::uint32_t> ways;
  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto out = c.access(0, addr_of(g, 0, t), false);
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.evicted_valid) << "no eviction while invalid ways remain";
    ways.insert(out.way);
  }
  EXPECT_EQ(ways.size(), 4U);
  // Fifth distinct tag evicts the LRU line (tag 0).
  const auto out = c.access(0, addr_of(g, 0, 4), false);
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.evicted_valid);
  EXPECT_EQ(g.set_index(out.evicted_line), 0ULL);
  EXPECT_EQ(g.tag(out.evicted_line), 0ULL);
  EXPECT_FALSE(c.access(0, addr_of(g, 0, 0), false).hit) << "evicted line is gone";
}

TEST(Cache, EvictedLineAddressRoundTrips) {
  const auto g = tiny();
  SetAssocCache c(g, ReplacementKind::kLru, 1, EnforcementMode::kNone);
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const Addr a = rng.next_below(1 << 20) * g.line_bytes;
    const auto out = c.access(0, a, false);
    if (out.evicted_valid) {
      // The evicted line must have lived in the same set as the new one.
      ASSERT_EQ(g.set_index(out.evicted_line), g.set_index(g.line_addr(a)));
      ASSERT_FALSE(c.probe(out.evicted_line * g.line_bytes).hit);
    }
  }
}

TEST(Cache, ProbeDoesNotMutate) {
  const auto g = tiny();
  SetAssocCache c(g, ReplacementKind::kLru, 1, EnforcementMode::kNone);
  c.access(0, addr_of(g, 1, 1), false);
  const auto s0 = c.stats().per_core[0];
  EXPECT_TRUE(c.probe(addr_of(g, 1, 1)).hit);
  EXPECT_FALSE(c.probe(addr_of(g, 1, 2)).hit);
  EXPECT_EQ(c.stats().per_core[0].accesses, s0.accesses) << "probe must not count";
}

TEST(Cache, WriteStatsTracked) {
  SetAssocCache c(tiny(), ReplacementKind::kLru, 1, EnforcementMode::kNone);
  c.access(0, 0x0, true);
  c.access(0, 0x0, false);
  c.access(0, 0x0, true);
  EXPECT_EQ(c.stats().per_core[0].writes, 2ULL);
}

TEST(Cache, PerCoreStatsSeparated) {
  SetAssocCache c(tiny(), ReplacementKind::kLru, 2, EnforcementMode::kNone);
  c.access(0, 0x0, false);
  c.access(1, 0x0, false);  // same line: core 1 hits what core 0 fetched
  EXPECT_EQ(c.stats().per_core[0].misses, 1ULL);
  EXPECT_EQ(c.stats().per_core[1].hits, 1ULL);
  const auto total = c.stats().total();
  EXPECT_EQ(total.accesses, 2ULL);
  EXPECT_EQ(total.hits, 1ULL);
}

TEST(Cache, CrossAndSelfEvictionsAttributed) {
  const auto g = tiny();
  SetAssocCache c(g, ReplacementKind::kLru, 2, EnforcementMode::kNone);
  // Core 0 fills set 0 completely.
  for (std::uint64_t t = 0; t < 4; ++t) c.access(0, addr_of(g, 0, t), false);
  // Core 1 misses into the same set: evicts core 0's line.
  c.access(1, addr_of(g, 0, 10), false);
  EXPECT_EQ(c.stats().per_core[1].cross_evictions, 1ULL);
  EXPECT_EQ(c.stats().per_core[1].self_evictions, 0ULL);
  // Core 0 misses again: with LRU the victim is its own oldest line.
  c.access(0, addr_of(g, 0, 11), false);
  EXPECT_EQ(c.stats().per_core[0].self_evictions, 1ULL);
}

TEST(Cache, LruReplacementOrderObserved) {
  const auto g = tiny();
  SetAssocCache c(g, ReplacementKind::kLru, 1, EnforcementMode::kNone);
  for (std::uint64_t t = 0; t < 4; ++t) c.access(0, addr_of(g, 0, t), false);
  c.access(0, addr_of(g, 0, 0), false);  // refresh tag 0 -> tag 1 is now LRU
  const auto out = c.access(0, addr_of(g, 0, 9), false);
  EXPECT_TRUE(out.evicted_valid);
  EXPECT_EQ(g.tag(out.evicted_line), 1ULL);
}

TEST(Cache, DistinctReplacementKindsDiverge) {
  // Drive identical conflict-heavy streams through LRU and tree-PLRU caches;
  // they must disagree somewhere in their miss totals.
  const auto g = tiny();
  SetAssocCache lru(g, ReplacementKind::kLru, 1, EnforcementMode::kNone);
  SetAssocCache bt(g, ReplacementKind::kTreePlru, 1, EnforcementMode::kNone);
  Rng rng(1);
  for (int i = 0; i < 4000; ++i) {
    const Addr a = addr_of(g, rng.next_below(4), rng.next_below(6));
    lru.access(0, a, false);
    bt.access(0, a, false);
  }
  EXPECT_NE(lru.stats().per_core[0].misses, bt.stats().per_core[0].misses);
}

}  // namespace
}  // namespace plrupart::cache
