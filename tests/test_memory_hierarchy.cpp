#include "plrupart/sim/memory_hierarchy.hpp"

#include <gtest/gtest.h>

#include <type_traits>

namespace plrupart::sim {
namespace {

static_assert(std::is_copy_constructible_v<MemoryHierarchy>);
static_assert(std::is_move_constructible_v<MemoryHierarchy>);

HierarchyConfig small_config(std::uint32_t cores, const char* acronym = "NOPART-L") {
  HierarchyConfig cfg;
  cfg.l1d = cache::Geometry{.size_bytes = 1024, .associativity = 2, .line_bytes = 64};
  cfg.l2 = core::CpaConfig::from_acronym(
      acronym, cores,
      cache::Geometry{.size_bytes = 16384, .associativity = 8, .line_bytes = 64});
  return cfg;
}

TEST(MemoryHierarchy, L1HitNeverReachesL2) {
  MemoryHierarchy mh(small_config(1));
  EXPECT_EQ(mh.access(0, 0x40, false, 0), AccessLevel::kMemory);  // cold
  EXPECT_EQ(mh.access(0, 0x40, false, 0), AccessLevel::kL1);
  EXPECT_EQ(mh.counters(0).l1_accesses, 2ULL);
  EXPECT_EQ(mh.counters(0).l1_misses, 1ULL);
  EXPECT_EQ(mh.counters(0).l2_accesses, 1ULL);
}

TEST(MemoryHierarchy, L1EvictionFallsBackToL2) {
  // Three lines mapping to the same L1 set (2-way) but distinct L2 sets keep
  // bouncing out of L1 while staying resident in L2.
  MemoryHierarchy mh(small_config(1));
  const cache::Addr a = 0x0;
  const cache::Addr b = 0x400;   // 1KB apart: same L1 set (8 sets x 64B)
  const cache::Addr c = 0x800;
  mh.access(0, a, false, 0);
  mh.access(0, b, false, 0);
  mh.access(0, c, false, 0);  // evicts a from L1
  EXPECT_EQ(mh.access(0, a, false, 0), AccessLevel::kL2) << "L1 miss, L2 hit";
}

TEST(MemoryHierarchy, PrivateL1sDoNotInterfere) {
  MemoryHierarchy mh(small_config(2));
  mh.access(0, 0x40, false, 0);
  // Core 1 misses its own L1 even though core 0 has the line in L1 —
  // but hits the shared L2.
  EXPECT_EQ(mh.access(1, 0x40, false, 0), AccessLevel::kL2);
  EXPECT_EQ(mh.counters(1).l1_misses, 1ULL);
}

TEST(MemoryHierarchy, SharedL2SeesAllCores) {
  MemoryHierarchy mh(small_config(2));
  mh.access(0, 0x1000, false, 0);
  mh.access(1, 0x2000, false, 0);
  EXPECT_EQ(mh.l2().l2().stats().per_core[0].accesses, 1ULL);
  EXPECT_EQ(mh.l2().l2().stats().per_core[1].accesses, 1ULL);
}

TEST(MemoryHierarchy, PartitionedL2Wired) {
  MemoryHierarchy mh(small_config(2, "M-L"));
  for (int i = 0; i < 100; ++i)
    mh.access(0, static_cast<cache::Addr>(0x40000 + i * 0x1000), false, 0);
  EXPECT_GT(mh.l2().profiler(0).sdh().total(), 0ULL)
      << "L2 accesses must feed the profiling logic";
}

TEST(MemoryHierarchy, CopyIsAnIndependentFork) {
  MemoryHierarchy mh(small_config(2, "M-L"));
  mh.access(0, 0x40, false, 0);
  MemoryHierarchy fork = mh;
  EXPECT_EQ(fork.access(0, 0x40, false, 0), AccessLevel::kL1) << "the fork keeps the L1";
  EXPECT_EQ(fork.access(1, 0x40, false, 0), AccessLevel::kL2) << "and the shared L2";
  EXPECT_EQ(mh.counters(0).l1_accesses, 1ULL) << "the original is untouched";
  EXPECT_EQ(mh.l2().l2().stats().per_core[1].accesses, 0ULL);
}

}  // namespace
}  // namespace plrupart::sim
