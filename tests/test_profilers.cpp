// Profiler correctness: an LRU-ATD profiler is exact against a full-trace
// oracle; NRU/BT-ATD profilers obey the paper's estimated-SDH update rules.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "plrupart/common/rng.hpp"
#include "plrupart/core/profiler.hpp"

namespace plrupart::core {
namespace {

cache::Geometry small_l2() {
  // 32 sets x 4 ways x 64B.
  return cache::Geometry{.size_bytes = 8192, .associativity = 4, .line_bytes = 64};
}

cache::Addr line_in_set(const cache::Geometry& g, std::uint64_t set, std::uint64_t tag) {
  return (tag << ilog2_exact(g.sets())) | set;
}

/// Oracle: exact per-set LRU stacks over the full (sampled) trace.
class StackOracle {
 public:
  explicit StackOracle(std::uint32_t assoc) : assoc_(assoc), sdh_(assoc) {}

  void access(std::uint64_t set, std::uint64_t tag) {
    auto& stack = stacks_[set];
    std::uint32_t depth = 1;
    for (auto it = stack.begin(); it != stack.end(); ++it, ++depth) {
      if (*it == tag) {
        if (depth <= assoc_)
          sdh_.record_hit(depth);
        else
          sdh_.record_miss();
        stack.erase(it);
        stack.push_front(tag);
        return;
      }
    }
    sdh_.record_miss();
    stack.push_front(tag);
    if (stack.size() > assoc_) stack.pop_back();  // bounded directory
  }

  [[nodiscard]] const Sdh& sdh() const { return sdh_; }

 private:
  std::uint32_t assoc_;
  std::map<std::uint64_t, std::deque<std::uint64_t>> stacks_;
  Sdh sdh_;
};

TEST(LruProfiler, ExactAgainstOracleOnRandomTrace) {
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kLru, /*sampling_ratio=*/4);
  StackOracle oracle(g.associativity);
  Rng rng(2718);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t set = rng.next_below(g.sets());
    const std::uint64_t tag = rng.next_below(10);
    const cache::Addr line = line_in_set(g, set, tag);
    prof.record_access(line);
    if (prof.atd().is_sampled(line)) oracle.access(set, tag);
  }
  for (std::uint32_t i = 1; i <= g.associativity + 1; ++i) {
    EXPECT_EQ(prof.sdh().reg(i), oracle.sdh().reg(i)) << "register r" << i;
  }
}

TEST(LruProfiler, MissCurvePredictsIsolatedMissesExactly) {
  // Cyclic access to 3 distinct lines in a 4-way set: after warmup every
  // access hits at distance 3.
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kLru, 1);
  for (int round = 0; round < 10; ++round)
    for (std::uint64_t t = 0; t < 3; ++t)
      prof.record_access(line_in_set(g, 0, t));
  const auto curve = prof.curve();
  EXPECT_DOUBLE_EQ(curve.misses(3), 3.0);  // only the 3 cold misses
  EXPECT_DOUBLE_EQ(curve.misses(2), 30.0); // 2 ways: everything misses
}

// --- NRU profiler -----------------------------------------------------------

TEST(NruProfiler, Fig3ScenarioScaleOne) {
  // 4-way set with lines {A,B,C,D} resident and C, D recently used. A new
  // access to D has U=2: per the paper, "we increase both SDH registers r1
  // and r2, assuming the stack distance to be 2".
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kNru, 1, /*esdh_scale=*/1.0);
  for (std::uint64_t t = 0; t < 4; ++t) prof.record_access(line_in_set(g, 0, t));
  // Fill saturation left only tag 3 used; touch tag 2 then tag 3.
  prof.record_access(line_in_set(g, 0, 2));
  const auto r1_before = prof.sdh().reg(1);
  const auto r2_before = prof.sdh().reg(2);
  const auto r3_before = prof.sdh().reg(3);
  prof.record_access(line_in_set(g, 0, 3));  // used bit already 1, U = 2
  EXPECT_EQ(prof.sdh().reg(1), r1_before + 1);
  EXPECT_EQ(prof.sdh().reg(2), r2_before + 1);
  EXPECT_EQ(prof.sdh().reg(3), r3_before) << "nothing beyond the scaled endpoint";
}

TEST(NruProfiler, PointModeRecordsOnlyTheEndpoint) {
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kNru, 1, 1.0, NruUpdateMode::kPoint);
  for (std::uint64_t t = 0; t < 4; ++t) prof.record_access(line_in_set(g, 0, t));
  prof.record_access(line_in_set(g, 0, 2));
  prof.record_access(line_in_set(g, 0, 3));  // U = 2
  EXPECT_EQ(prof.sdh().reg(1), 0ULL);
  EXPECT_EQ(prof.sdh().reg(2), 1ULL);
}

TEST(NruProfiler, ScalingFactorsRoundUp) {
  // With U = 2: S=0.75 -> ceil(1.5) = 2; S=0.5 -> ceil(1.0) = 1.
  const auto g = small_l2();
  for (const auto& [scale, expected_reg] :
       std::vector<std::pair<double, std::uint32_t>>{{0.75, 2U}, {0.5, 1U}}) {
    Profiler prof(g, cache::ReplacementKind::kNru, 1, scale);
    for (std::uint64_t t = 0; t < 4; ++t) prof.record_access(line_in_set(g, 0, t));
    prof.record_access(line_in_set(g, 0, 2));
    prof.record_access(line_in_set(g, 0, 3));
    EXPECT_EQ(prof.sdh().reg(expected_reg), 1ULL) << "S=" << scale;
  }
}

TEST(NruProfiler, UnusedBitHitRecordsNothingByDefault) {
  // Fill 4 lines (saturation leaves only tag 3 used), touch tags 0 and 1,
  // then hit tag 2 whose used bit is 0: the paper records nothing.
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kNru, 1, 1.0);
  for (std::uint64_t t = 0; t < 4; ++t) prof.record_access(line_in_set(g, 0, t));
  prof.record_access(line_in_set(g, 0, 0));
  prof.record_access(line_in_set(g, 0, 1));
  const auto total_before = prof.sdh().total();
  prof.record_access(line_in_set(g, 0, 2));  // used bit 0
  EXPECT_EQ(prof.sdh().total(), total_before);
}

TEST(NruProfiler, RecordUnusedAblationRecordsAssociativity) {
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kNru, 1, 1.0,
                NruUpdateMode::kPointRecordUnused);
  for (std::uint64_t t = 0; t < 4; ++t) prof.record_access(line_in_set(g, 0, t));
  prof.record_access(line_in_set(g, 0, 0));
  prof.record_access(line_in_set(g, 0, 1));
  const auto r4_before = prof.sdh().reg(4);
  prof.record_access(line_in_set(g, 0, 2));
  EXPECT_EQ(prof.sdh().reg(4), r4_before + 1);
}

TEST(NruProfiler, AtdMissGoesToMissRegister) {
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kNru, 1, 0.75);
  for (std::uint64_t t = 0; t < 6; ++t) prof.record_access(line_in_set(g, 0, t));
  EXPECT_EQ(prof.sdh().reg(g.associativity + 1), 6ULL) << "all cold accesses miss";
}

TEST(NruProfiler, SmearModeSpreadsFractionalWeight) {
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kNru, 1, 1.0, NruUpdateMode::kSmear);
  for (std::uint64_t t = 0; t < 4; ++t) prof.record_access(line_in_set(g, 0, t));
  prof.record_access(line_in_set(g, 0, 2));
  prof.record_access(line_in_set(g, 0, 3));  // hit with U=2: +0.5 to d=1 and d=2
  const auto curve = prof.curve();
  // Mass at distance 2: 0.5 from the used-bit hit (U=2) plus 1/3 from the
  // earlier unused-bit hit smeared over [2,4]. misses(1) counts it, misses(2)
  // does not.
  EXPECT_GT(curve.misses(1), curve.misses(2));
  EXPECT_NEAR(curve.misses(1) - curve.misses(2), 0.5 + 1.0 / 3.0, 1e-9);
}

TEST(NruProfiler, RejectsBadScale) {
  EXPECT_THROW(Profiler(small_l2(), cache::ReplacementKind::kNru, 1, 0.0),
               InvariantError);
  EXPECT_THROW(Profiler(small_l2(), cache::ReplacementKind::kNru, 1, 1.5),
               InvariantError);
}

// --- BT profiler ------------------------------------------------------------

TEST(BtProfiler, ImmediateReReferenceRecordsMru) {
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kTreePlru, 1);
  prof.record_access(line_in_set(g, 0, 7));
  prof.record_access(line_in_set(g, 0, 7));
  EXPECT_EQ(prof.sdh().reg(1), 1ULL);
}

TEST(BtProfiler, EstimatesStayWithinStack) {
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kTreePlru, 1);
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    prof.record_access(line_in_set(g, rng.next_below(g.sets()), rng.next_below(6)));
  }
  std::uint64_t hits = 0;
  for (std::uint32_t d = 1; d <= g.associativity; ++d) hits += prof.sdh().reg(d);
  EXPECT_GT(hits, 0ULL);
  EXPECT_EQ(hits + prof.sdh().reg(g.associativity + 1), prof.sdh().total());
}

TEST(BtProfiler, AlternatingPairEstimatesDistanceTwo) {
  // X, Y, X, Y... in a 4-way set. The two lines fill adjacent ways (invalid
  // ways are taken in order), sharing the deepest tree node: the XOR estimate
  // then reproduces the true LRU stack distance of 2 on every re-reference.
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kTreePlru, 1);
  for (int i = 0; i < 10; ++i) {
    prof.record_access(line_in_set(g, 0, 0));
    prof.record_access(line_in_set(g, 0, 1));
  }
  EXPECT_EQ(prof.sdh().reg(2), 18ULL);
  EXPECT_EQ(prof.sdh().reg(4), 0ULL);
}

// --- ATD kind and names ------------------------------------------------------

TEST(ProfilerFactory, AutoMatchesReplacement) {
  // The ATD runs the L2's own policy, and the profiler's name says which.
  using cache::ReplacementKind;
  const auto g = small_l2();
  EXPECT_EQ(Profiler(g, ReplacementKind::kLru, 1).name(), "SDH-LRU");
  EXPECT_EQ(Profiler(g, ReplacementKind::kNru, 1, 0.75).name(), "eSDH-NRU(S=0.75)");
  EXPECT_EQ(Profiler(g, ReplacementKind::kTreePlru, 1).name(), "eSDH-BT");
  EXPECT_EQ(Profiler(g, ReplacementKind::kSrrip, 1).name(), "eSDH-SRRIP");
}

TEST(Profiler, DecayHalvesSdh) {
  const auto g = small_l2();
  Profiler prof(g, cache::ReplacementKind::kLru, 1);
  for (int i = 0; i < 8; ++i) prof.record_access(line_in_set(g, 0, 0));
  EXPECT_EQ(prof.sdh().reg(1), 7ULL);
  prof.decay();
  EXPECT_EQ(prof.sdh().reg(1), 3ULL);
}

}  // namespace
}  // namespace plrupart::core
