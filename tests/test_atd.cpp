// Auxiliary Tag Directory: set sampling, hit/miss semantics, pre-update
// estimates, storage accounting.
#include "plrupart/core/atd.hpp"

#include <gtest/gtest.h>

#include "plrupart/common/rng.hpp"

namespace plrupart::core {
namespace {

cache::Geometry l2_16sets() {
  // 16 sets x 4 ways x 64B.
  return cache::Geometry{.size_bytes = 4096, .associativity = 4, .line_bytes = 64};
}

cache::Addr line_in_set(const cache::Geometry& g, std::uint64_t set, std::uint64_t tag) {
  return (tag << ilog2_exact(g.sets())) | set;
}

TEST(Atd, SamplesEveryRatiothSet) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, /*sampling_ratio=*/4);
  EXPECT_EQ(atd.sets(), 4ULL);
  int sampled = 0;
  for (std::uint64_t s = 0; s < g.sets(); ++s) {
    if (atd.is_sampled(line_in_set(g, s, 1))) {
      ++sampled;
      EXPECT_EQ(s % 4, 0ULL);
    }
  }
  EXPECT_EQ(sampled, 4);
}

TEST(Atd, UnsampledAccessReturnsNothing) {
  Atd atd(l2_16sets(), cache::ReplacementKind::kLru, 4);
  EXPECT_FALSE(atd.access(line_in_set(l2_16sets(), 1, 5)).has_value());
  EXPECT_TRUE(atd.access(line_in_set(l2_16sets(), 4, 5)).has_value());
}

TEST(Atd, SamplingRatioOneProfilesEverything) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 1);
  for (std::uint64_t s = 0; s < g.sets(); ++s) {
    EXPECT_TRUE(atd.access(line_in_set(g, s, 1)).has_value());
  }
}

TEST(Atd, MissThenHitSemantics) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 4);
  const auto first = atd.access(line_in_set(g, 0, 9));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->hit);
  const auto second = atd.access(line_in_set(g, 0, 9));
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->hit);
  EXPECT_EQ(second->estimate.point, 1U) << "immediate re-reference is MRU";
}

TEST(Atd, EstimateIsPreUpdate) {
  // Access X, then Y, then X again: under LRU the second X access must see
  // stack distance 2 (one line referenced since), not 1.
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 4);
  atd.access(line_in_set(g, 0, 1));
  atd.access(line_in_set(g, 0, 2));
  const auto obs = atd.access(line_in_set(g, 0, 1));
  ASSERT_TRUE(obs.has_value());
  ASSERT_TRUE(obs->hit);
  EXPECT_EQ(obs->estimate.point, 2U);
}

TEST(Atd, CapacityMissAfterAssociativityDistinctLines) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 4);
  for (std::uint64_t t = 0; t < 4; ++t) atd.access(line_in_set(g, 0, t));
  // Tag 0 is LRU: a fifth line evicts it.
  atd.access(line_in_set(g, 0, 99));
  const auto obs = atd.access(line_in_set(g, 0, 0));
  ASSERT_TRUE(obs.has_value());
  EXPECT_FALSE(obs->hit) << "the thread would miss even with full associativity";
}

TEST(Atd, DifferentTagsSameAtdSetConflictCorrectly) {
  // Two L2 sets 4 apart map to the same ATD set only if ratio folds them —
  // they must NOT: sampling selects sets, it does not fold them.
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kLru, 4);
  atd.access(line_in_set(g, 0, 1));
  const auto obs = atd.access(line_in_set(g, 4, 1));
  ASSERT_TRUE(obs.has_value());
  EXPECT_FALSE(obs->hit) << "set 4 is a different sampled set than set 0";
}

TEST(Atd, NruAtdReportsIntervalEstimates) {
  const auto g = l2_16sets();
  Atd atd(g, cache::ReplacementKind::kNru, 4);
  atd.access(line_in_set(g, 0, 1));
  const auto obs = atd.access(line_in_set(g, 0, 1));
  ASSERT_TRUE(obs.has_value());
  ASSERT_TRUE(obs->hit);
  EXPECT_EQ(obs->estimate.lo, 1U);
  EXPECT_GE(obs->estimate.hi, 1U);
}

TEST(Atd, RejectsBadSamplingRatio) {
  EXPECT_THROW(Atd(l2_16sets(), cache::ReplacementKind::kLru, 3), InvariantError);
  EXPECT_THROW(Atd(l2_16sets(), cache::ReplacementKind::kLru, 32), InvariantError);
}

TEST(Atd, PaperStorageFigure) {
  // Paper §III: 3.25KB per core for a 2MB 16-way L2 with 47 tag bits and 1/32
  // sampling (LRU ATD): 32 sets x 16 ways x (47+1+4) bits.
  Atd atd(cache::paper_l2_geometry(), cache::ReplacementKind::kLru, 32);
  const auto bits = atd.storage_bits(47);
  EXPECT_EQ(bits, 26624ULL);
  EXPECT_DOUBLE_EQ(static_cast<double>(bits) / 8.0 / 1024.0, 3.25);
}

}  // namespace
}  // namespace plrupart::core
