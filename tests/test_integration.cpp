// End-to-end behavioral checks: the qualitative effects the paper's
// evaluation is built on must emerge from the full stack.
#include <gtest/gtest.h>

#include "plrupart/core/qos.hpp"
#include "plrupart/core/static_policy.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"

namespace plrupart {
namespace {

using sim::CmpSimulator;
using sim::SimConfig;
using sim::SimResult;
using sim::TraceSource;
using workloads::benchmark;
using workloads::make_trace;

SimResult run(const std::vector<std::string>& names, const char* acronym,
              std::uint64_t l2_bytes, std::uint64_t instr = 80'000,
              std::uint64_t seed = 7) {
  SimConfig cfg;
  cfg.hierarchy.l1d =
      cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
      acronym, static_cast<std::uint32_t>(names.size()),
      cache::Geometry{.size_bytes = l2_bytes, .associativity = 16, .line_bytes = 128});
  cfg.hierarchy.l2.interval_cycles = 100'000;
  cfg.instr_limit = instr;
  std::vector<std::unique_ptr<TraceSource>> traces;
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    const auto& prof = benchmark(names[i]);
    cfg.cores.push_back(prof.core);
    traces.push_back(make_trace(prof, i, seed));
  }
  CmpSimulator sim(std::move(cfg), std::move(traces));
  return sim.run();
}

TEST(Integration, PartitioningProtectsReuseFromStreaming) {
  // twolf (cache-sensitive) + art (streaming thrasher) on a small L2: the
  // MinMisses CPA must recover throughput vs. the unpartitioned LRU cache —
  // the core claim behind the paper's Fig. 8 at 512KB.
  const auto unpart = run({"twolf", "art"}, "NOPART-L", 256 * 1024);
  const auto part = run({"twolf", "art"}, "M-L", 256 * 1024);
  EXPECT_GT(part.throughput(), unpart.throughput() * 0.999);
  // The sensitive thread specifically must be no worse off.
  EXPECT_GE(part.threads[0].ipc, unpart.threads[0].ipc * 0.98);
}

TEST(Integration, PartitioningGainsShrinkWithCacheSize) {
  // Fig. 8 trend: relative improvement at a small cache exceeds the one at a
  // big cache, where both threads fit.
  const double small_gain = run({"twolf", "art"}, "M-L", 128 * 1024).throughput() /
                            run({"twolf", "art"}, "NOPART-L", 128 * 1024).throughput();
  const double big_gain = run({"twolf", "art"}, "M-L", 2 * 1024 * 1024).throughput() /
                          run({"twolf", "art"}, "NOPART-L", 2 * 1024 * 1024).throughput();
  EXPECT_GT(small_gain, big_gain - 0.02);
}

TEST(Integration, NruBehavesLikeRandomReplacement) {
  // Paper §V-A: the shared replacement pointer makes NRU behave like random
  // replacement. Their throughputs must track within a few percent.
  const auto nru = run({"twolf", "gzip"}, "NOPART-N", 256 * 1024);
  const auto rnd = run({"twolf", "gzip"}, "NOPART-R", 256 * 1024);
  EXPECT_NEAR(nru.throughput() / rnd.throughput(), 1.0, 0.05);
}

TEST(Integration, TrueLruBeatsPseudoLruOnReuse) {
  // On reuse-heavy workloads LRU should not lose to its approximations.
  const auto lru = run({"twolf", "vpr"}, "NOPART-L", 256 * 1024);
  const auto nru = run({"twolf", "vpr"}, "NOPART-N", 256 * 1024);
  const auto bt = run({"twolf", "vpr"}, "NOPART-BT", 256 * 1024);
  EXPECT_GE(lru.throughput(), nru.throughput() * 0.98);
  EXPECT_GE(lru.throughput(), bt.throughput() * 0.98);
}

TEST(Integration, PseudoLruCpaTracksLruCpa) {
  // The headline result: CPAs on NRU/BT lose only a little against the
  // C-L baseline (paper: 0.3%..9.7% depending on core count).
  const auto cl = run({"twolf", "art"}, "C-L", 256 * 1024);
  const auto nru = run({"twolf", "art"}, "M-0.75N", 256 * 1024);
  const auto bt = run({"twolf", "art"}, "M-BT", 256 * 1024);
  EXPECT_GT(nru.throughput(), cl.throughput() * 0.85);
  EXPECT_GT(bt.throughput(), cl.throughput() * 0.85);
}

TEST(Integration, OwnerCountersAndMasksAgreeClosely) {
  // Paper §V-B: C-L vs M-L differ by under ~0.5% at any core count. Allow a
  // wider band at our trace lengths, but they must track.
  const auto cl = run({"parser", "gzip"}, "C-L", 512 * 1024);
  const auto ml = run({"parser", "gzip"}, "M-L", 512 * 1024);
  EXPECT_NEAR(ml.throughput() / cl.throughput(), 1.0, 0.05);
}

TEST(Integration, FourCoreWorkloadRuns) {
  const auto r =
      run({"apsi", "bzip2", "mcf", "parser"}, "M-0.75N", 1024 * 1024, 40'000);
  EXPECT_EQ(r.threads.size(), 4U);
  EXPECT_GT(r.repartitions, 0ULL);
  for (const auto& t : r.threads) EXPECT_GT(t.ipc, 0.0);
}

TEST(Integration, EightCoreWorkloadRuns) {
  const auto r = run({"apsi", "bzip2", "mcf", "parser", "twolf", "swim", "vpr", "art"},
                     "M-BT", 1024 * 1024, 25'000);
  EXPECT_EQ(r.threads.size(), 8U);
  for (const auto& t : r.threads) EXPECT_GT(t.ipc, 0.0);
}

TEST(Integration, QosTargetIsProtected) {
  auto mk = [&](core::IntervalController::DecideFn decide) {
    SimConfig cfg;
    cfg.hierarchy.l1d =
        cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
    cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
        "M-L", 2,
        cache::Geometry{.size_bytes = 256 * 1024, .associativity = 16, .line_bytes = 128});
    cfg.hierarchy.l2.decide = std::move(decide);
    cfg.hierarchy.l2.interval_cycles = 100'000;
    cfg.instr_limit = 80'000;
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (std::uint32_t i = 0; i < 2; ++i) {
      const auto& prof = benchmark(i == 0 ? "twolf" : "art");
      cfg.cores.push_back(prof.core);
      traces.push_back(make_trace(prof, i, 7));
    }
    CmpSimulator sim(std::move(cfg), std::move(traces));
    return sim.run();
  };
  const auto qos = mk([](const std::vector<core::MissCurve>& c, std::uint32_t ways) {
    return core::qos_partition(c, ways, {.core = 0, .factor = 1.05});
  });
  const auto even = mk([](const std::vector<core::MissCurve>& c, std::uint32_t ways) {
    return core::even_split(static_cast<std::uint32_t>(c.size()), ways);
  });
  EXPECT_GE(qos.threads[0].ipc, even.threads[0].ipc * 0.98)
      << "QoS must not do worse for its target than a static even split";
}

TEST(Integration, MissCurveFromRealRunPredictsWaySensitivity) {
  // Extract the twolf profile from a live run: it must want multiple ways
  // (steep early curve), unlike art whose curve is flat beyond a way or two.
  SimConfig cfg;
  cfg.hierarchy.l1d =
      cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
      "M-L", 2,
      cache::Geometry{.size_bytes = 512 * 1024, .associativity = 16, .line_bytes = 128});
  cfg.hierarchy.l2.sampling_ratio = 1;
  cfg.instr_limit = 150'000;
  cfg.cores = {benchmark("twolf").core, benchmark("art").core};
  std::vector<std::unique_ptr<TraceSource>> traces;
  traces.push_back(make_trace(benchmark("twolf"), 0, 3));
  traces.push_back(make_trace(benchmark("art"), 1, 3));
  CmpSimulator sim(std::move(cfg), std::move(traces));
  (void)sim.run();
  const auto twolf_curve = sim.hierarchy().l2().profiler(0).curve();
  const auto art_curve = sim.hierarchy().l2().profiler(1).curve();
  // Beyond a few ways (past art's small hot head), twolf keeps converting
  // ways into hits — its ~540KB working set exceeds this 512KB L2 — while
  // art's 4MB stream gains nothing.
  const double twolf_tail = twolf_curve.misses(4) - twolf_curve.misses(16);
  const double art_tail = art_curve.misses(4) - art_curve.misses(16);
  EXPECT_GT(twolf_tail / (twolf_curve.accesses() + 1.0),
            art_tail / (art_curve.accesses() + 1.0))
      << "twolf must look way-sensitive relative to art";
}

}  // namespace
}  // namespace plrupart
