// PartitionedCacheSystem facade: configuration acronyms, wiring, partition
// application across enforcement modes, and value semantics (copies fork the
// whole state, moves keep enforcing).
#include "plrupart/core/partitioned_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <type_traits>

#include "plrupart/common/rng.hpp"
#include "plrupart/core/fair.hpp"
#include "plrupart/core/ipc_policy.hpp"
#include "plrupart/core/qos.hpp"
#include "plrupart/core/static_policy.hpp"
#include "plrupart/core/tree_rounding.hpp"

namespace plrupart::core {
namespace {

cache::Geometry small_l2() {
  // 64 sets x 8 ways x 64B = 32KB.
  return cache::Geometry{.size_bytes = 32768, .associativity = 8, .line_bytes = 64};
}

static_assert(std::is_copy_constructible_v<PartitionedCacheSystem>);
static_assert(std::is_move_constructible_v<PartitionedCacheSystem>);

TEST(CpaConfig, AcronymRoundTrip) {
  // Iterating known_acronyms() (rather than a literal list) keeps the
  // advertised set and the from_acronym parser from drifting apart.
  EXPECT_EQ(CpaConfig::known_acronyms().size(), 11U);
  for (const auto& name : CpaConfig::known_acronyms()) {
    const auto cfg = CpaConfig::from_acronym(name, 2, small_l2());
    EXPECT_EQ(cfg.acronym(), name);
  }
  EXPECT_THROW((void)CpaConfig::from_acronym("X-77", 2, small_l2()), InvariantError);
}

TEST(CpaConfig, AcronymOfEveryEsdhScale) {
  // acronym() is SimResult::l2_config, so the eSDH-scale ablation's names,
  // listed or not, are output bytes.
  const std::vector<std::pair<double, std::string>> scales{
      {0.25, "M-0.25N"},   {0.375, "M-0.375N"}, {0.5, "M-0.5N"}, {0.625, "M-0.625N"},
      {0.75, "M-0.75N"},   {0.875, "M-0.875N"}, {1.0, "M-1.0N"}};
  for (const auto& [scale, name] : scales) {
    auto cfg = CpaConfig::from_acronym("M-1.0N", 2, small_l2());
    cfg.esdh_scale = scale;
    EXPECT_EQ(cfg.acronym(), name);
  }
}

TEST(CpaConfig, AcronymSemantics) {
  const auto cl = CpaConfig::from_acronym("C-L", 4, small_l2());
  EXPECT_EQ(cl.enforcement, cache::EnforcementMode::kOwnerCounters);
  EXPECT_EQ(cl.replacement, cache::ReplacementKind::kLru);
  EXPECT_TRUE(cl.partitioned());

  const auto mn = CpaConfig::from_acronym("M-0.75N", 4, small_l2());
  EXPECT_EQ(mn.enforcement, cache::EnforcementMode::kWayMasks);
  EXPECT_EQ(mn.replacement, cache::ReplacementKind::kNru);
  EXPECT_DOUBLE_EQ(mn.esdh_scale, 0.75);

  const auto np = CpaConfig::from_acronym("NOPART-BT", 4, small_l2());
  EXPECT_FALSE(np.partitioned());
}

TEST(PartitionedCache, UnpartitionedHasNoProfilersOrController) {
  auto cfg = CpaConfig::from_acronym("NOPART-L", 2, small_l2());
  PartitionedCacheSystem sys(cfg);
  EXPECT_EQ(sys.controller(), nullptr);
  EXPECT_EQ(sys.current_partition(), (Partition{8, 8})) << "everyone sees all ways";
  EXPECT_THROW((void)sys.profiler(0), InvariantError);
  const auto out = sys.access(0, 0x1000, false, 0);
  EXPECT_FALSE(out.hit);
}

TEST(PartitionedCache, InitialEvenMasksApplied) {
  auto cfg = CpaConfig::from_acronym("M-L", 2, small_l2());
  PartitionedCacheSystem sys(cfg);
  EXPECT_EQ(sys.l2().way_mask(0), way_range_mask(0, 4));
  EXPECT_EQ(sys.l2().way_mask(1), way_range_mask(4, 4));
}

TEST(PartitionedCache, RepartitionUpdatesMasksFromProfiles) {
  auto cfg = CpaConfig::from_acronym("M-L", 2, small_l2());
  cfg.interval_cycles = 1000;
  cfg.sampling_ratio = 1;  // profile everything: deterministic curves
  PartitionedCacheSystem sys(cfg);
  const auto g = cfg.geometry;
  // Core 0 loops over 6 lines of one set (needs 6 ways); core 1 streams.
  std::uint64_t t1 = 1000;
  for (int round = 0; round < 300; ++round) {
    for (std::uint64_t t = 0; t < 6; ++t)
      sys.access(0, ((t << ilog2_exact(g.sets())) | 3) * g.line_bytes, false, 10);
    sys.access(1, ((t1++ << ilog2_exact(g.sets())) | 3) * g.line_bytes, false, 10);
  }
  // Cross the boundary.
  sys.access(0, 0, false, 2000);
  const auto part = sys.current_partition();
  EXPECT_GE(part[0], 6U) << "the loop thread earns its working set";
  EXPECT_EQ(sys.l2().way_mask(0), way_range_mask(0, part[0]));
  EXPECT_EQ(sys.l2().way_mask(1), way_range_mask(part[0], part[1]));
  EXPECT_FALSE(sys.controller()->history().empty());
}

TEST(PartitionedCache, OwnerCounterModeAppliesQuotas) {
  auto cfg = CpaConfig::from_acronym("C-L", 2, small_l2());
  PartitionedCacheSystem sys(cfg);
  EXPECT_EQ(sys.l2().way_quota(0), 4U);
  EXPECT_EQ(sys.l2().way_quota(1), 4U);
}

TEST(PartitionedCache, BtStrictModeProducesPow2AlignedMasks) {
  auto cfg = CpaConfig::from_acronym("M-BT", 3, small_l2());
  cfg.bt_strict_pow2 = true;
  cfg.interval_cycles = 500;
  PartitionedCacheSystem sys(cfg);
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    const auto core = static_cast<cache::CoreId>(rng.next_below(3));
    sys.access(core, rng.next_below(1 << 22), false, static_cast<std::uint64_t>(i));
  }
  WayMask all = 0;
  for (cache::CoreId c = 0; c < 3; ++c) {
    const WayMask m = sys.l2().way_mask(c);
    const auto count = mask_count(m);
    EXPECT_TRUE(is_pow2(count));
    EXPECT_EQ(m, way_range_mask(mask_first(m), count)) << "contiguous block";
    EXPECT_EQ(mask_first(m) % count, 0U) << "aligned block";
    EXPECT_EQ(all & m, 0ULL);
    all |= m;
  }
  EXPECT_EQ(all, full_way_mask(8));
}

TEST(PartitionedCache, AccessesFlowIntoProfilers) {
  auto cfg = CpaConfig::from_acronym("M-0.75N", 2, small_l2());
  cfg.sampling_ratio = 1;
  PartitionedCacheSystem sys(cfg);
  for (int i = 0; i < 100; ++i) sys.access(0, 0x40, false, 0);
  EXPECT_GT(sys.profiler(0).sdh().total(), 0ULL);
  EXPECT_EQ(sys.profiler(1).sdh().total(), 0ULL);
}

TEST(PartitionedCache, SamplingRatioLimitsProfiledShare) {
  auto cfg = CpaConfig::from_acronym("M-L", 2, small_l2());
  cfg.sampling_ratio = 32;
  PartitionedCacheSystem sys(cfg);
  Rng rng(8);
  for (int i = 0; i < 32000; ++i) {
    sys.access(0, rng.next_below(1 << 24), false, 0);
  }
  const double share = static_cast<double>(sys.profiler(0).sdh().total()) / 32000.0;
  EXPECT_NEAR(share, 1.0 / 32.0, 0.01);
}

TEST(PartitionedCache, RepartitionsWithTheConfiguredDecideFunction) {
  const QosTarget qos{.core = 2, .factor = 1.0};
  const std::vector<IpcModel> models{IpcModel{.stall_fraction = 0.05}, IpcModel{},
                                     IpcModel{}};
  const std::vector<IntervalController::DecideFn> functions{
      min_misses_optimal,
      min_misses_greedy,
      min_misses_lookahead,
      min_misses_tree,
      fair_partition,
      [&](const std::vector<MissCurve>& c, std::uint32_t a) {
        return qos_partition(c, a, qos);
      },
      [&](const std::vector<MissCurve>& c, std::uint32_t a) {
        return ipc_partition(c, a, models, IpcObjective::kHarmonicMean);
      },
      [](const std::vector<MissCurve>& c, std::uint32_t a) {
        return even_split(static_cast<std::uint32_t>(c.size()), a);
      }};
  std::set<Partition> distinct;
  for (std::size_t f = 0; f < functions.size(); ++f) {
    auto cfg = CpaConfig::from_acronym("M-L", 3, small_l2());
    cfg.decide = functions[f];
    cfg.sampling_ratio = 1;
    cfg.repartition_hysteresis = 0.0;
    PartitionedCacheSystem sys(cfg);
    // All lines map to set 0. Core 0 cycles 4 lines in order (a knee at 4
    // ways), core 1 draws from 3 lines and core 2 from 8.
    Rng rng(17);
    for (std::uint64_t t = 0; t < 3000; ++t) {
      const auto core = static_cast<cache::CoreId>(t % 3);
      const std::uint64_t k = core == 0 ? (t / 3) % 4 : rng.next_below(core == 1 ? 3 : 8);
      const std::uint64_t line = (k + 16 * core) * small_l2().sets();
      sys.access(core, line * small_l2().line_bytes, false, t);
    }
    std::vector<MissCurve> curves;
    for (cache::CoreId c = 0; c < 3; ++c) curves.push_back(sys.profiler(c).curve());
    const Partition expected = functions[f](curves, 8);
    sys.controller_mut()->repartition_now(3000);
    EXPECT_EQ(sys.current_partition(), expected) << "function " << f;
    distinct.insert(expected);
  }
  EXPECT_GE(distinct.size(), 5U) << "the stream must tell most functions apart";
}

TEST(PartitionedCache, RejectsMoreCoresThanWays) {
  auto cfg = CpaConfig::from_acronym("M-L", 9, small_l2());  // 8 ways only
  EXPECT_THROW(PartitionedCacheSystem{cfg}, InvariantError);
}

TEST(PartitionedCache, ProfilingStorageAccounted) {
  auto cfg = CpaConfig::from_acronym("M-L", 2, cache::paper_l2_geometry());
  PartitionedCacheSystem sys(cfg);
  // Two LRU ATDs at 3.25KB plus two SDHs (17 x 32-bit registers).
  const auto bits = sys.profiling_storage_bits(47);
  EXPECT_EQ(bits, 2ULL * 26624 + 2ULL * 17 * 32);
}

struct TimedAccess {
  cache::CoreId core;
  cache::Addr addr;
  std::uint64_t now;
};

/// `n` accesses from 3 cores starting at cycle `t0`, one cycle apart. Core c
/// draws lines from a footprint of `footprints[c]` lines, so the profiles
/// (and the partitions chosen from them) differ by core.
std::vector<TimedAccess> make_stream(std::uint64_t seed, std::size_t n, std::uint64_t t0,
                                     const std::array<std::uint64_t, 3>& footprints) {
  Rng rng(seed);
  std::vector<TimedAccess> stream;
  for (std::size_t i = 0; i < n; ++i) {
    const auto core = static_cast<cache::CoreId>(rng.next_below(3));
    const std::uint64_t line = rng.next_below(footprints[core]) + (std::uint64_t{core} << 20);
    stream.push_back({core, line * small_l2().line_bytes, t0 + i});
  }
  return stream;
}

std::vector<cache::AccessOutcome> drive(PartitionedCacheSystem& sys,
                                        const std::vector<TimedAccess>& stream) {
  std::vector<cache::AccessOutcome> out;
  for (const auto& a : stream) out.push_back(sys.access(a.core, a.addr, false, a.now));
  return out;
}

void expect_same_outcomes(const std::vector<cache::AccessOutcome>& a,
                          const std::vector<cache::AccessOutcome>& b, const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].hit == b[i].hit && a[i].way == b[i].way &&
                a[i].evicted_valid == b[i].evicted_valid &&
                a[i].evicted_line == b[i].evicted_line &&
                a[i].evicted_owner == b[i].evicted_owner)
        << ctx << ": access " << i;
  }
}

void expect_same_state(const PartitionedCacheSystem& a, const PartitionedCacheSystem& b,
                       const std::string& ctx) {
  EXPECT_EQ(a.current_partition(), b.current_partition()) << ctx;
  const auto& ha = a.controller()->history();
  const auto& hb = b.controller()->history();
  ASSERT_EQ(ha.size(), hb.size()) << ctx;
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].cycle, hb[i].cycle) << ctx << ": repartition " << i;
    EXPECT_EQ(ha[i].partition, hb[i].partition) << ctx << ": repartition " << i;
  }
}

CpaConfig fork_config(const std::string& acronym, bool strict = false) {
  auto cfg = CpaConfig::from_acronym(acronym, 3, small_l2());
  cfg.interval_cycles = 1000;
  cfg.sampling_ratio = 2;
  cfg.repartition_hysteresis = 0.0;
  cfg.bt_strict_pow2 = strict;
  return cfg;
}

TEST(PartitionedCache, MovedSystemKeepsEnforcing) {
  const CpaConfig cfg = fork_config("M-L");
  const auto head = make_stream(3, 1500, 0, {24, 400, 64});
  const auto body = make_stream(4, 4000, 1500, {400, 24, 64});
  PartitionedCacheSystem reference(cfg);
  drive(reference, head);
  const auto expected = drive(reference, body);

  PartitionedCacheSystem original(cfg);
  drive(original, head);
  PartitionedCacheSystem moved(std::move(original));
  PartitionedCacheSystem assigned(cfg);
  const std::vector<TimedAccess> first(body.begin(), body.begin() + 2000);
  const std::vector<TimedAccess> second(body.begin() + 2000, body.end());
  auto got = drive(moved, first);
  assigned = std::move(moved);
  const auto rest = drive(assigned, second);
  got.insert(got.end(), rest.begin(), rest.end());

  expect_same_outcomes(got, expected, "moved");
  expect_same_state(assigned, reference, "moved");
  ASSERT_GE(assigned.controller()->history().size(), 5U) << "crossed the boundaries";
  const auto masks = contiguous_masks(assigned.current_partition());
  for (cache::CoreId c = 0; c < 3; ++c) EXPECT_EQ(assigned.l2().way_mask(c), masks[c]);
}

// The fork gate: a copy taken mid-stream continues exactly like the original,
// and driving the copy elsewhere leaves the original on its un-forked course.
TEST(PartitionedCache, CopyForksTheWholeState) {
  const std::vector<std::pair<std::string, bool>> configs{
      {"M-L", false}, {"M-0.75N", false}, {"M-BT", false}, {"M-BT", true}, {"C-L", false}};
  const auto head = make_stream(11, 4000, 0, {128, 320, 64});
  const auto same = make_stream(12, 3000, 4000, {448, 1, 64});
  const auto tail = make_stream(13, 3000, 7000, {1, 64, 448});
  const auto other = make_stream(14, 3000, 7000, {64, 448, 1});
  for (const auto& [acronym, strict] : configs) {
    const CpaConfig cfg = fork_config(acronym, strict);
    const std::string ctx = acronym + (strict ? " strict" : "");
    PartitionedCacheSystem unforked(cfg);
    drive(unforked, head);
    drive(unforked, same);
    const auto unforked_tail = drive(unforked, tail);

    PartitionedCacheSystem original(cfg);
    drive(original, head);
    ASSERT_GE(original.controller()->history().size(), 3U) << ctx;
    PartitionedCacheSystem fork(original);
    expect_same_outcomes(drive(fork, same), drive(original, same), ctx + " shared stream");
    expect_same_state(fork, original, ctx + " shared stream");

    drive(fork, other);
    expect_same_outcomes(drive(original, tail), unforked_tail, ctx + " after the fork");
    expect_same_state(original, unforked, ctx + " after the fork");
    EXPECT_NE(fork.l2().stats().per_core[2].hits, original.l2().stats().per_core[2].hits)
        << ctx << ": the fork ran a different stream";
    const Partition p = original.current_partition();
    for (cache::CoreId c = 0; c < 3; ++c) {
      if (cfg.enforcement == cache::EnforcementMode::kOwnerCounters) {
        EXPECT_EQ(original.l2().way_quota(c), p[c]) << ctx;
      } else if (!strict) {
        EXPECT_EQ(original.l2().way_mask(c), contiguous_masks(p)[c]) << ctx;
      }
    }
  }
}

}  // namespace
}  // namespace plrupart::core
