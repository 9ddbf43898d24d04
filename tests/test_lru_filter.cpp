// LruFilter, the private-L1 model: hit-for-hit differential against the
// general SetAssocCache running true LRU for one core, plus its edge cases.
#include "plrupart/cache/lru_filter.hpp"

#include <gtest/gtest.h>

#include <string>

#include "plrupart/cache/cache.hpp"
#include "plrupart/common/rng.hpp"

namespace plrupart::cache {
namespace {

TEST(LruFilter, MatchesSetAssocLruHitForHit) {
  constexpr int kOps = 20000;
  std::uint64_t seed = 1;
  for (const std::uint32_t ways : {1U, 2U, 4U, 8U, 16U, 32U, 64U}) {
    for (const std::uint64_t sets : {1ULL, 2ULL, 128ULL}) {
      for (const std::uint32_t line : {1U, 8U, 128U}) {
        if (line * sets == 1) continue;  // the sentinel geometry, rejected below
        const Geometry geo{.size_bytes = sets * ways * line, .associativity = ways,
                           .line_bytes = line};
        SCOPED_TRACE("ways " + std::to_string(ways) + ", sets " + std::to_string(sets) +
                     ", line " + std::to_string(line));
        LruFilter filter(geo);
        SetAssocCache ref(geo, ReplacementKind::kLru, 1, EnforcementMode::kNone);
        Rng rng(seed++);
        // Two regions of one cache's worth of lines each, at the bottom and at
        // the top of the address space (so the largest tags of the shape occur):
        // a mix of hits, cold misses and LRU evictions, at any byte offset.
        const std::uint64_t region = geo.lines();
        const Addr top = ~Addr{0} - region * line + 1;
        int hits = 0;
        for (int i = 0; i < kOps; ++i) {
          if (i == kOps / 2) {
            filter.reset();
            ref.reset();
          }
          const Addr base = rng.next_bool(0.5) ? 0 : top;
          const Addr a = base + rng.next_below(region) * line + rng.next_below(line);
          const bool hit = filter.access(a);
          ASSERT_EQ(hit, ref.access(0, a, rng.next_bool(0.3)).hit) << "op " << i;
          hits += hit ? 1 : 0;
        }
        EXPECT_GT(hits, 0);
        EXPECT_LT(hits, kOps);
      }
    }
  }
}

TEST(LruFilter, EvictsTheLeastRecentlyUsedLine) {
  LruFilter f(Geometry{.size_bytes = 256, .associativity = 2, .line_bytes = 128});
  EXPECT_FALSE(f.access(0x000));
  EXPECT_FALSE(f.access(0x100));
  EXPECT_TRUE(f.access(0x000));   // 0x100 is now LRU
  EXPECT_FALSE(f.access(0x200));  // evicts 0x100
  EXPECT_TRUE(f.access(0x07f)) << "same line as 0x000";
  EXPECT_FALSE(f.access(0x100));
}

TEST(LruFilter, ResetEmptiesEverySet) {
  LruFilter f(Geometry{.size_bytes = 1024, .associativity = 2, .line_bytes = 64});
  for (Addr a = 0; a < 1024; a += 64) f.access(a);
  for (Addr a = 0; a < 1024; a += 64) EXPECT_TRUE(f.access(a));
  f.reset();
  for (Addr a = 0; a < 1024; a += 64) EXPECT_FALSE(f.access(a)) << a;
}

TEST(LruFilter, RejectsTheSentinelGeometry) {
  // line_bytes x sets == 1 makes the tag the whole address, so address ~0
  // would read as an empty slot.
  const Geometry bad{.size_bytes = 2, .associativity = 2, .line_bytes = 1};
  try {
    LruFilter f(bad);
    FAIL() << "sentinel geometry accepted";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line_bytes x sets == 1"), std::string::npos) << what;
    EXPECT_NE(what.find("size_bytes=2, associativity=2, line_bytes=1"), std::string::npos)
        << what;
  }
  // One more set (or a 2-byte line) is enough to keep every tag below ~0.
  LruFilter ok(Geometry{.size_bytes = 4, .associativity = 2, .line_bytes = 1});
  EXPECT_FALSE(ok.access(~Addr{0}));
  EXPECT_TRUE(ok.access(~Addr{0}));
}

TEST(LruFilter, RejectsInvalidGeometry) {
  EXPECT_THROW(LruFilter(Geometry{.size_bytes = 3 * 1024, .associativity = 4, .line_bytes = 64}),
               InvariantError);
  EXPECT_THROW(LruFilter(Geometry{.size_bytes = 128, .associativity = 4, .line_bytes = 64}),
               InvariantError);
}

}  // namespace
}  // namespace plrupart::cache
