// google-benchmark microbenchmarks: per-access cost of the replacement-policy
// state machines (the software analogue of Table I(b)'s update costs) and of
// the full L2/ATD access paths that dominate every figure reproduction.
//
// The access benchmarks replay pre-generated address streams so the timed
// loop measures the cache datapath itself, not the RNG that feeds it.
//
// The BM_Policy* cases drive each concrete policy class directly, as
// SetAssocCache does through its policy variant: their numbers measure the
// inlined hooks, not a virtual call.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/common/rng.hpp"
#include "plrupart/core/atd.hpp"

using namespace plrupart;
using cache::Geometry;
using cache::ReplacementKind;

namespace {

Geometry bench_geo(std::uint32_t ways) {
  return Geometry{.size_bytes = 1024ULL * ways * 128, .associativity = ways,
                  .line_bytes = 128};
}

/// Benchmark argument i names the i-th policy of cache::kPolicyKinds
/// (LRU, NRU, BT, SRRIP).
ReplacementKind kind_of(std::int64_t i) {
  return cache::kPolicyKinds.at(static_cast<std::size_t>(i));
}

/// Run `fn` on a freshly constructed policy of `kind`, as its concrete class,
/// so the benchmark loop inside `fn` is instantiated per policy.
template <class Fn>
void with_policy(ReplacementKind kind, const Geometry& geo, Fn&& fn) {
  switch (kind) {
    case ReplacementKind::kLru: {
      cache::TrueLru p(geo);
      return fn(p);
    }
    case ReplacementKind::kNru: {
      cache::Nru p(geo);
      return fn(p);
    }
    case ReplacementKind::kTreePlru: {
      cache::TreePlru p(geo);
      return fn(p);
    }
    case ReplacementKind::kSrrip:
      break;
  }
  cache::Srrip p(geo);
  fn(p);
}

/// Power-of-two-sized byte-address stream spanning `span_lines` cache lines
/// of `geo`, replayed circularly by the access benchmarks.
std::vector<cache::Addr> make_addr_stream(const Geometry& geo, std::uint64_t span_lines,
                                          std::uint64_t seed) {
  constexpr std::size_t kStream = 1 << 16;
  std::vector<cache::Addr> addrs(kStream);
  Rng rng(seed);
  for (auto& a : addrs) a = rng.next_below(span_lines) * geo.line_bytes;
  return addrs;
}

void BM_PolicyHitUpdate(benchmark::State& state) {
  const auto geo = bench_geo(static_cast<std::uint32_t>(state.range(1)));
  with_policy(kind_of(state.range(0)), geo, [&](auto& policy) {
    Rng rng(1);
    std::uint64_t set = 0;
    std::uint32_t way = 0;
    for (auto _ : state) {
      policy.on_hit(set, way, policy.all_ways());
      set = (set + 1) & (geo.sets() - 1);
      way = static_cast<std::uint32_t>(rng.next_below(geo.associativity));
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(to_string(kind_of(state.range(0))) + "/" +
                 std::to_string(state.range(1)) + "way");
}

void BM_PolicyVictimSelection(benchmark::State& state) {
  const auto geo = bench_geo(static_cast<std::uint32_t>(state.range(1)));
  with_policy(kind_of(state.range(0)), geo, [&](auto& policy) {
    // Realistic state: a warm cache with mixed recency.
    Rng warm(7);
    for (int i = 0; i < 100000; ++i) {
      policy.on_hit(warm.next_below(geo.sets()),
                    static_cast<std::uint32_t>(warm.next_below(geo.associativity)),
                    policy.all_ways());
    }
    std::uint64_t set = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(policy.choose_victim(set, policy.all_ways()));
      set = (set + 1) & (geo.sets() - 1);
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(to_string(kind_of(state.range(0))) + "/" +
                 std::to_string(state.range(1)) + "way");
}

void BM_PolicyMaskedVictim(benchmark::State& state) {
  const auto geo = bench_geo(16);
  with_policy(kind_of(state.range(0)), geo, [&](auto& policy) {
    const WayMask mask = way_range_mask(4, 4);  // a 4-way partition
    std::uint64_t set = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(policy.choose_victim(set, mask));
      set = (set + 1) & (geo.sets() - 1);
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(to_string(kind_of(state.range(0))));
}

/// Full SetAssocCache::access path: policy × associativity × enforcement.
/// Two cores split the cache evenly; the address span is 32× the cache so the
/// stream exercises both the hit scan and the miss/victim path.
void BM_CacheAccess(benchmark::State& state) {
  const auto kind = kind_of(state.range(0));
  const auto ways = static_cast<std::uint32_t>(state.range(1));
  const auto enf = static_cast<cache::EnforcementMode>(state.range(2));
  const auto geo = bench_geo(ways);
  cache::SetAssocCache c(geo, kind, 2, enf);
  if (enf == cache::EnforcementMode::kWayMasks) {
    c.set_way_mask(0, way_range_mask(0, ways / 2));
    c.set_way_mask(1, way_range_mask(ways / 2, ways / 2));
  } else if (enf == cache::EnforcementMode::kOwnerCounters) {
    c.set_way_quota(0, ways / 2);
    c.set_way_quota(1, ways / 2);
  }
  const auto addrs = make_addr_stream(geo, 32 * geo.lines(), 3);
  const std::size_t mask = addrs.size() - 1;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto core = static_cast<cache::CoreId>(i & 1);
    benchmark::DoNotOptimize(c.access(core, addrs[i & mask], false));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(to_string(kind) + "/" + std::to_string(ways) + "way/" +
                 to_string(enf));
}

/// ATD probe path on sampled accesses only (the stream is pre-filtered to
/// sampled sets, as the hardware filter would before the ATD sees a probe).
void BM_AtdSampledAccess(benchmark::State& state) {
  const auto kind = kind_of(state.range(0));
  const auto ways = static_cast<std::uint32_t>(state.range(1));
  const Geometry l2 = bench_geo(ways);
  constexpr std::uint32_t kSampling = 32;
  core::Atd atd(l2, kind, kSampling);
  constexpr std::size_t kStream = 1 << 16;
  std::vector<cache::Addr> lines(kStream);
  Rng rng(5);
  for (auto& a : lines) {
    cache::Addr la;
    do {
      la = rng.next_below(32 * l2.lines());
    } while (!atd.is_sampled(la));
    a = la;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(atd.access(lines[i & (kStream - 1)]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(to_string(kind) + "/" + std::to_string(ways) + "way");
}

}  // namespace

BENCHMARK(BM_PolicyHitUpdate)
    ->ArgsProduct({{0, 1, 2, 3}, {4, 16, 64}})
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_PolicyVictimSelection)
    ->ArgsProduct({{0, 1, 2, 3}, {4, 16, 64}})
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_PolicyMaskedVictim)->DenseRange(0, 3)->Unit(benchmark::kNanosecond);
// The headline matrix: every policy at 16/32 ways under all three
// enforcement modes (0 = none, 1 = way masks, 2 = owner counters).
BENCHMARK(BM_CacheAccess)
    ->ArgsProduct({{0, 1, 2, 3}, {16, 32}, {0, 1, 2}})
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_AtdSampledAccess)
    ->ArgsProduct({{0, 1, 2, 3}, {16, 32}})
    ->Unit(benchmark::kNanosecond);

BENCHMARK_MAIN();
