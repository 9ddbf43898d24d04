// google-benchmark microbenchmarks for the timed-simulation overlay: the
// MSHR allocate/fill/retire transaction that every L2 miss pays, alone and
// interleaved across cores the way a timed run issues it, and the end-to-end
// per-instruction cost of `--timing timed` relative to the functional replay.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/sim/timed_memory.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"

using namespace plrupart;

namespace {

cache::Geometry bench_l2_geo() {
  return cache::Geometry{.size_bytes = 256 * 1024, .associativity = 16,
                         .line_bytes = 128};
}

/// Full miss transaction — MSHR allocate, bank enqueue/service, retire — on a
/// unique-line stream (no coalescing), across the banked DRAM. Per-item cost
/// here multiplies every L2 miss of a timed run.
void BM_TimedMemoryMissRetire(benchmark::State& state) {
  sim::TimedParams params;
  params.dram_banks = static_cast<std::uint32_t>(state.range(0));
  const auto geo = bench_l2_geo();
  sim::TimedMemory mem(params, geo);
  std::uint64_t t = 0;
  cache::Addr line = 0;
  std::uint32_t way = 0;
  for (auto _ : state) {
    const auto ticket = mem.miss(t, line, way, false, false, 0);
    t = mem.retire(ticket);
    line += 7;  // coprime stride: walks banks, rows, and sets
    way = (way + 1) & (geo.associativity - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(std::to_string(params.dram_banks) + "bank");
}

/// Miss traffic shaped like a timed run's: 4 lanes (cores) each hold at most
/// one fill in flight and retire it before their next miss, so several fills
/// overlap in the MSHRs and DRAM banks, and about 30% of misses evict a dirty
/// victim (reported as wb_per_miss). A single retire-then-miss stream never overlaps two fills and so
/// underprices a miss; this series carries the queueing a real run pays.
void BM_TimedMemoryInterleaved(benchmark::State& state) {
  constexpr std::uint32_t kLanes = 4;
  const sim::TimedParams params;
  const auto geo = bench_l2_geo();
  sim::TimedMemory mem(params, geo);
  std::vector<sim::TimedMemory::Ticket> held(kLanes);
  std::vector<std::uint64_t> clock(kLanes, 0);
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  cache::Addr line = 0;
  std::uint32_t lane = 0;
  for (auto _ : state) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    if (held[lane].valid) clock[lane] = std::max(clock[lane], mem.retire(held[lane]));
    clock[lane] += 20 + (rng & 63);  // the instructions between two L2 misses
    const auto way = static_cast<std::uint32_t>(rng >> 8) & (geo.associativity - 1);
    // Every miss evicts a valid line; it writes back iff the miss that last
    // filled the way was a write, which 30% are.
    const bool write = (rng >> 16) % 10 < 3;
    held[lane] = mem.miss(clock[lane], line, way, write, true, line ^ 0x5555);
    line += 7;  // coprime stride: walks banks, rows, and sets
    lane = (lane + 1) % kLanes;
  }
  for (auto& tk : held)
    if (tk.valid) (void)mem.retire(tk);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["wb_per_miss"] =
      static_cast<double>(mem.stats().dram_writebacks) /
      static_cast<double>(std::max<std::uint64_t>(1, mem.stats().dram_reads));
}

/// The coalescing window: a second miss to a line whose fill is in flight
/// merges into the pending MSHR instead of issuing a new DRAM read. Each
/// iteration is one miss + one coalesced merge + two retires.
void BM_TimedMemoryCoalescedMiss(benchmark::State& state) {
  const sim::TimedParams params;
  const auto geo = bench_l2_geo();
  sim::TimedMemory mem(params, geo);
  std::uint64_t t = 0;
  cache::Addr line = 0;
  for (auto _ : state) {
    const auto first = mem.miss(t, line, 0, false, false, 0);
    const auto merged = mem.miss(t, line, 0, false, false, 0);
    (void)mem.retire(merged);
    t = mem.retire(first);
    line += 7;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (mem.stats().mshr_coalesced !=
      static_cast<std::uint64_t>(state.iterations()))
    state.SkipWithError("coalescing did not engage");
}

/// End-to-end replay cost per simulated instruction, functional vs timed, on
/// one Table II two-thread workload. The ratio of these two series is the
/// price of `--timing timed`.
void BM_ReplayPerInstruction(benchmark::State& state) {
  const auto mode = state.range(0) == 0 ? sim::TimingMode::kFunctional
                                        : sim::TimingMode::kTimed;
  constexpr std::uint64_t kInstr = 40'000;
  const std::vector<std::string> benchmarks{"twolf", "art"};
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.hierarchy.l1d =
        cache::Geometry{.size_bytes = 4 * 1024, .associativity = 2, .line_bytes = 128};
    cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
        "M-BT", static_cast<std::uint32_t>(benchmarks.size()), bench_l2_geo());
    cfg.hierarchy.l2.interval_cycles = 25'000;
    cfg.hierarchy.l2.sampling_ratio = 8;
    cfg.instr_limit = kInstr;
    cfg.warmup_instr = kInstr / 4;
    cfg.timing_mode = mode;
    std::vector<std::unique_ptr<sim::TraceSource>> traces;
    for (std::size_t i = 0; i < benchmarks.size(); ++i) {
      const auto& prof = workloads::benchmark(benchmarks[i]);
      cfg.cores.push_back(prof.core);
      traces.push_back(workloads::make_trace(prof, static_cast<std::uint32_t>(i), 42));
    }
    sim::CmpSimulator sim(std::move(cfg), std::move(traces));
    const auto result = sim.run();
    instructions += result.total_instructions();
    benchmark::DoNotOptimize(result.wall_cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
  state.SetLabel(to_string(mode));
}

}  // namespace

BENCHMARK(BM_TimedMemoryMissRetire)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_TimedMemoryInterleaved)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_TimedMemoryCoalescedMiss)->Unit(benchmark::kNanosecond);
// 0 = functional baseline, 1 = timed overlay; compare items/s across the two.
BENCHMARK(BM_ReplayPerInstruction)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
