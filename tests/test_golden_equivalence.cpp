// Golden-equivalence replay: the statically-dispatched SoA access path must be
// bit-indistinguishable from the frozen pre-refactor reference model for every
// ReplacementKind × EnforcementMode × associativity combination, across hits,
// misses, evictions, probes and partition updates. The associativity axis
// (8, 32, 64 ways) runs the SWAR scans of plrupart/common/bits.hpp at one,
// four and eight words per set: the partial-tag filter of every lookup and,
// for SRRIP, the distant-line scan of every victim choice.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/common/rng.hpp"
#include "support/reference_cache.hpp"

namespace plrupart {
namespace {

using cache::EnforcementMode;
using cache::ReplacementKind;

struct Combo {
  ReplacementKind kind;
  EnforcementMode enforcement;
  std::uint32_t ways;
};

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string s = to_string(info.param.kind) + "_" + to_string(info.param.enforcement) +
                  "_" + std::to_string(info.param.ways) + "way";
  for (auto& c : s) {
    if (c == '-' || c == '.') c = '_';
  }
  return s;
}

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
  const auto [kind, enforcement, ways] = GetParam();
  // 64 sets at every associativity.
  const cache::Geometry geo{.size_bytes = 64 * ways * 128, .associativity = ways,
                            .line_bytes = 128};
  constexpr std::uint32_t kCores = 3;
  constexpr std::uint64_t kSeed = 0xc0ffee;

  cache::SetAssocCache sut(geo, kind, kCores, enforcement, kSeed);
  testing::ReferenceCache ref(geo, kind, kCores, enforcement, kSeed);

  Rng rng(42);
  std::vector<cache::Addr> history;
  for (int step = 0; step < 60'000; ++step) {
    // Occasionally reshape the partition, mirroring the interval controller.
    if (step % 4096 == 1000 && enforcement == EnforcementMode::kWayMasks) {
      // Three contiguous non-empty blocks over the set's ways.
      const auto cut1 = static_cast<std::uint32_t>(rng.next_in(1, ways - 2));
      const auto cut2 = static_cast<std::uint32_t>(rng.next_in(cut1 + 1, ways - 1));
      const WayMask m0 = way_range_mask(0, cut1);
      const WayMask m1 = way_range_mask(cut1, cut2 - cut1);
      const WayMask m2 = way_range_mask(cut2, ways - cut2);
      sut.set_way_mask(0, m0);
      sut.set_way_mask(1, m1);
      sut.set_way_mask(2, m2);
      ref.set_way_mask(0, m0);
      ref.set_way_mask(1, m1);
      ref.set_way_mask(2, m2);
    }
    if (step % 4096 == 2000 && enforcement == EnforcementMode::kOwnerCounters) {
      const auto q0 = static_cast<std::uint32_t>(rng.next_in(1, ways - 2));
      const auto q1 = static_cast<std::uint32_t>(rng.next_in(1, ways - 1 - q0));
      const std::uint32_t q2 = ways - q0 - q1;
      sut.set_way_quota(0, q0);
      sut.set_way_quota(1, q1);
      sut.set_way_quota(2, q2 > 0 ? q2 : 1);
      ref.set_way_quota(0, q0);
      ref.set_way_quota(1, q1);
      ref.set_way_quota(2, q2 > 0 ? q2 : 1);
    }

    const auto op = rng.next_below(100);
    if (op < 4 && !history.empty()) {
      const cache::Addr addr = history[rng.next_below(history.size())];
      const auto pr = ref.probe(addr);
      const auto ps = sut.probe(addr);
      EXPECT_EQ(ps.hit, pr.hit) << "step " << step;
      EXPECT_EQ(ps.way, pr.way) << "step " << step;
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
    const auto a = sut.access(core, addr, write);
    ASSERT_EQ(a.hit, b.hit) << "step " << step;
    ASSERT_EQ(a.way, b.way) << "step " << step;
    ASSERT_EQ(a.evicted_valid, b.evicted_valid) << "step " << step;
    ASSERT_EQ(a.evicted_line, b.evicted_line) << "step " << step;
    ASSERT_EQ(a.evicted_owner, b.evicted_owner) << "step " << step;

    if (step % 1024 == 0) {
      for (std::uint64_t set = 0; set < geo.sets(); set += 7) {
        for (cache::CoreId c = 0; c < kCores; ++c) {
          ASSERT_EQ(sut.owned_in_set(set, c), ref.owned_in_set(set, c))
              << "step " << step << " set " << set << " core " << c;
        }
      }
    }
  }

  expect_same_stats(sut.stats(), ref.stats());
}

std::vector<Combo> all_combos() {
  std::vector<Combo> combos;
  for (const auto kind : {ReplacementKind::kLru, ReplacementKind::kNru,
                          ReplacementKind::kTreePlru, ReplacementKind::kRandom,
                          ReplacementKind::kSrrip}) {
    for (const auto enf : {EnforcementMode::kNone, EnforcementMode::kWayMasks,
                           EnforcementMode::kOwnerCounters}) {
      for (const std::uint32_t ways : {8U, 32U, 64U}) {
        combos.push_back({kind, enf, ways});
      }
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, GoldenEquivalence, ::testing::ValuesIn(all_combos()),
                         combo_name);

}  // namespace
}  // namespace plrupart
