// Golden-equivalence replay: the statically-dispatched SoA access path must be
// bit-indistinguishable from the frozen pre-refactor reference model for every
// ReplacementKind × EnforcementMode × DispatchTier combination, across hits,
// misses, evictions, probes, invalidations, partition updates and mid-trace
// resets. The tier axis is the bit-identity proof for the SIMD kernels
// (src/cache/simd): each combo runs the SUT under one forced tier against the
// tier-less reference model; a tier the build/host cannot run is skipped.
//
// Each combo drives two SUTs: one through the 3-arg access (the cache's own
// stats bundle) and one through the 4-arg access into an external bundle
// that is folded back with absorb_stats(), as the set-sharded simulator does
// at its interval barriers.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/cache/dispatch.hpp"
#include "plrupart/common/rng.hpp"
#include "support/reference_cache.hpp"

namespace plrupart {
namespace {

using cache::DispatchTier;
using cache::EnforcementMode;
using cache::ReplacementKind;

struct Combo {
  ReplacementKind kind;
  EnforcementMode enforcement;
  DispatchTier tier;
};

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string s = to_string(info.param.kind) + "_" + to_string(info.param.enforcement) +
                  "_" + to_string(info.param.tier);
  for (auto& c : s) {
    if (c == '-' || c == '.') c = '_';
  }
  return s;
}

/// Forces the process-wide dispatch tier for the lifetime of one test, so the
/// SUT constructed inside samples the combo's tier.
class ScopedDispatchTier {
 public:
  explicit ScopedDispatchTier(DispatchTier tier)
      : prev_(cache::active_dispatch_tier()) {
    cache::set_active_dispatch_tier(tier);
  }
  ~ScopedDispatchTier() { cache::set_active_dispatch_tier(prev_); }
  ScopedDispatchTier(const ScopedDispatchTier&) = delete;
  ScopedDispatchTier& operator=(const ScopedDispatchTier&) = delete;

 private:
  DispatchTier prev_;
};

class GoldenEquivalence : public ::testing::TestWithParam<Combo> {};

void expect_same_stats(const cache::CacheStatsBundle& a, const cache::CacheStatsBundle& b) {
  ASSERT_EQ(a.per_core.size(), b.per_core.size());
  for (std::size_t c = 0; c < a.per_core.size(); ++c) {
    EXPECT_EQ(a.per_core[c].accesses, b.per_core[c].accesses) << "core " << c;
    EXPECT_EQ(a.per_core[c].hits, b.per_core[c].hits) << "core " << c;
    EXPECT_EQ(a.per_core[c].misses, b.per_core[c].misses) << "core " << c;
    EXPECT_EQ(a.per_core[c].writes, b.per_core[c].writes) << "core " << c;
    EXPECT_EQ(a.per_core[c].self_evictions, b.per_core[c].self_evictions) << "core " << c;
    EXPECT_EQ(a.per_core[c].cross_evictions, b.per_core[c].cross_evictions) << "core " << c;
  }
}

TEST_P(GoldenEquivalence, RandomTraceReplaysIdentically) {
  const auto [kind, enforcement, tier] = GetParam();
  if (!cache::dispatch_tier_available(tier)) {
    GTEST_SKIP() << to_string(tier) << " tier not available on this build/host";
  }
  const cache::Geometry geo{.size_bytes = 64 * 8 * 128, .associativity = 8,
                            .line_bytes = 128};
  constexpr std::uint32_t kCores = 3;
  constexpr std::uint64_t kSeed = 0xc0ffee;

  const ScopedDispatchTier forced(tier);
  cache::SetAssocCache sut(geo, kind, kCores, enforcement, kSeed);
  cache::SetAssocCache ext(geo, kind, kCores, enforcement, kSeed);
  cache::CacheStatsBundle ext_stats(kCores);
  ASSERT_EQ(sut.dispatch_tier(), tier);
  ASSERT_EQ(ext.dispatch_tier(), tier);
  testing::ReferenceCache ref(geo, kind, kCores, enforcement, kSeed);

  Rng rng(42);
  std::vector<cache::Addr> history;
  for (int step = 0; step < 60'000; ++step) {
    // Occasionally reshape the partition, mirroring the interval controller.
    if (step % 4096 == 1000 && enforcement == EnforcementMode::kWayMasks) {
      // Three contiguous non-empty blocks over 8 ways.
      const auto cut1 = static_cast<std::uint32_t>(rng.next_in(1, 6));
      const auto cut2 = static_cast<std::uint32_t>(rng.next_in(cut1 + 1, 7));
      const WayMask m0 = way_range_mask(0, cut1);
      const WayMask m1 = way_range_mask(cut1, cut2 - cut1);
      const WayMask m2 = way_range_mask(cut2, 8 - cut2);
      for (auto* c : {&sut, &ext}) {
        c->set_way_mask(0, m0);
        c->set_way_mask(1, m1);
        c->set_way_mask(2, m2);
      }
      ref.set_way_mask(0, m0);
      ref.set_way_mask(1, m1);
      ref.set_way_mask(2, m2);
    }
    if (step % 4096 == 2000 && enforcement == EnforcementMode::kOwnerCounters) {
      const auto q0 = static_cast<std::uint32_t>(rng.next_in(1, 6));
      const auto q1 = static_cast<std::uint32_t>(rng.next_in(1, 7 - q0));
      const std::uint32_t q2 = 8 - q0 - q1;
      for (auto* c : {&sut, &ext}) {
        c->set_way_quota(0, q0);
        c->set_way_quota(1, q1);
        c->set_way_quota(2, q2 > 0 ? q2 : 1);
      }
      ref.set_way_quota(0, q0);
      ref.set_way_quota(1, q1);
      ref.set_way_quota(2, q2 > 0 ? q2 : 1);
    }

    if (step == 17'000 || step == 39'000) {
      // Mid-trace reset: both models must return to the same cold state.
      sut.reset();
      ext.reset();
      ext_stats.reset();
      ref.reset();
      history.clear();
    }

    const auto op = rng.next_below(100);
    if (op < 4 && !history.empty()) {
      // Invalidate a recently-touched address (often still resident).
      const cache::Addr addr = history[rng.next_below(history.size())];
      const bool dropped = ref.invalidate(addr);
      EXPECT_EQ(sut.invalidate(addr), dropped) << "step " << step;
      EXPECT_EQ(ext.invalidate(addr), dropped) << "step " << step;
      continue;
    }
    if (op < 8 && !history.empty()) {
      const cache::Addr addr = history[rng.next_below(history.size())];
      const auto pr = ref.probe(addr);
      for (const auto& ps : {sut.probe(addr), ext.probe(addr)}) {
        EXPECT_EQ(ps.hit, pr.hit) << "step " << step;
        EXPECT_EQ(ps.way, pr.way) << "step " << step;
      }
      continue;
    }
    const auto core = static_cast<cache::CoreId>(rng.next_below(kCores));
    // Mix of reuse (history) and fresh addresses spanning 16x the cache.
    cache::Addr addr;
    if (!history.empty() && rng.next_below(100) < 40) {
      addr = history[rng.next_below(history.size())];
    } else {
      addr = rng.next_below(16 * geo.lines()) * geo.line_bytes;
    }
    if (history.size() < 512)
      history.push_back(addr);
    else
      history[rng.next_below(history.size())] = addr;
    const bool write = rng.next_below(4) == 0;

    const auto b = ref.access(core, addr, write);
    for (const auto& a : {sut.access(core, addr, write),
                          ext.access(core, addr, write, ext_stats)}) {
      ASSERT_EQ(a.hit, b.hit) << "step " << step;
      ASSERT_EQ(a.way, b.way) << "step " << step;
      ASSERT_EQ(a.evicted_valid, b.evicted_valid) << "step " << step;
      ASSERT_EQ(a.evicted_line, b.evicted_line) << "step " << step;
      ASSERT_EQ(a.evicted_owner, b.evicted_owner) << "step " << step;
    }

    if (step % 1024 == 0) {
      for (std::uint64_t set = 0; set < geo.sets(); set += 7) {
        for (cache::CoreId c = 0; c < kCores; ++c) {
          ASSERT_EQ(sut.owned_in_set(set, c), ref.owned_in_set(set, c))
              << "step " << step << " set " << set << " core " << c;
          ASSERT_EQ(ext.owned_in_set(set, c), ref.owned_in_set(set, c))
              << "step " << step << " set " << set << " core " << c;
        }
      }
      // Fold the external deltas back, as a shard barrier does.
      ext.absorb_stats(ext_stats);
      ext_stats.reset();
    }
  }

  expect_same_stats(sut.stats(), ref.stats());
  ext.absorb_stats(ext_stats);
  expect_same_stats(ext.stats(), ref.stats());
}

std::vector<Combo> all_combos() {
  std::vector<Combo> combos;
  for (const auto kind : {ReplacementKind::kLru, ReplacementKind::kNru,
                          ReplacementKind::kTreePlru, ReplacementKind::kRandom,
                          ReplacementKind::kSrrip}) {
    for (const auto enf : {EnforcementMode::kNone, EnforcementMode::kWayMasks,
                           EnforcementMode::kOwnerCounters}) {
      for (const auto tier : {DispatchTier::kSwar, DispatchTier::kAvx2}) {
        combos.push_back({kind, enf, tier});
      }
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, GoldenEquivalence, ::testing::ValuesIn(all_combos()),
                         combo_name);

}  // namespace
}  // namespace plrupart
