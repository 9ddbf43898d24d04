// google-benchmark microbenchmarks: profiling and partition-selection
// datapaths — ATD probes, SDH updates, miss-curve builds, MinMisses solvers.
#include <benchmark/benchmark.h>

#include "plrupart/common/rng.hpp"
#include "plrupart/core/min_misses.hpp"
#include "plrupart/core/profiler.hpp"
#include "plrupart/core/tree_rounding.hpp"

using namespace plrupart;
using namespace plrupart::core;

namespace {

void BM_SdhRecord(benchmark::State& state) {
  Sdh sdh(16);
  Rng rng(1);
  for (auto _ : state) {
    sdh.record_hit(static_cast<std::uint32_t>(rng.next_in(1, 16)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ProfilerRecordAccess(benchmark::State& state) {
  const auto geo = cache::paper_l2_geometry();
  constexpr cache::ReplacementKind kKinds[] = {
      cache::ReplacementKind::kLru, cache::ReplacementKind::kNru,
      cache::ReplacementKind::kTreePlru, cache::ReplacementKind::kSrrip};
  Profiler prof(geo, kKinds[state.range(0)], 32, 0x5eed, /*esdh_scale=*/0.75);
  Rng rng(2);
  for (auto _ : state) {
    prof.record_access(rng.next_below(1 << 22));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(prof.name());
}

void BM_MissCurveBuild(benchmark::State& state) {
  Sdh sdh(16);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i)
    sdh.record_hit(static_cast<std::uint32_t>(rng.next_in(1, 16)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MissCurve::from_sdh(sdh));
  }
}

std::vector<MissCurve> solver_curves(std::uint32_t n, std::uint32_t ways) {
  Rng rng(4);
  std::vector<MissCurve> curves;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<double> v(ways + 1);
    v[0] = 10000.0;
    for (std::uint32_t w = 1; w <= ways; ++w)
      v[w] = v[w - 1] * (0.75 + rng.next_double() * 0.25);
    curves.emplace_back(std::move(v));
  }
  return curves;
}

void BM_MinMissesOptimal(benchmark::State& state) {
  const auto curves = solver_curves(static_cast<std::uint32_t>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_misses_optimal(curves, 16));
  }
  state.SetLabel(std::to_string(state.range(0)) + " cores");
}

void BM_MinMissesGreedy(benchmark::State& state) {
  const auto curves = solver_curves(static_cast<std::uint32_t>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_misses_greedy(curves, 16));
  }
  state.SetLabel(std::to_string(state.range(0)) + " cores");
}

void BM_MinMissesLookahead(benchmark::State& state) {
  const auto curves = solver_curves(static_cast<std::uint32_t>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_misses_lookahead(curves, 16));
  }
  state.SetLabel(std::to_string(state.range(0)) + " cores");
}

void BM_MinMissesTreeDp(benchmark::State& state) {
  const auto curves = solver_curves(static_cast<std::uint32_t>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_misses_tree(curves, 16));
  }
  state.SetLabel(std::to_string(state.range(0)) + " cores");
}

}  // namespace

BENCHMARK(BM_SdhRecord)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_ProfilerRecordAccess)->DenseRange(0, 3)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MissCurveBuild)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_MinMissesOptimal)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MinMissesGreedy)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MinMissesLookahead)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MinMissesTreeDp)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
