// TSan-facing stress suite: hammers the two places std::thread concurrency
// lives today — common/parallel.hpp and runner::SweepExecutor — so the
// ThreadSanitizer tier (PLRUPART_SANITIZE=thread) has real contention to bite
// on — plus the intra-run front-end pipeline (--sim-threads), whose producers
// call TraceSource::next() and the private L1s from K threads at once: any
// cross-thread sharing that reaches these paths shows up here first.
//
// The suite is deliberately repetition-heavy (many rounds x many thread
// counts): TSan finds races by observing conflicting access pairs, so one
// quiet fan-out proves much less than fifty contended ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "plrupart/cache/geometry.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/workload_table.hpp"
#include "support/probe_trace.hpp"

namespace plrupart {
namespace {

/// The thread counts the issue contract names: serial fallback, minimal
/// contention, oversubscribed (8 >> this container's cores), and whatever the
/// host really has.
std::vector<std::size_t> stress_thread_counts() {
  return {1, 2, 8, default_parallelism()};
}

TEST(ParallelStress, RepeatedFanOutCoversEveryIndexAtEveryThreadCount) {
  constexpr std::size_t kItems = 256;
  constexpr int kRounds = 25;
  for (const std::size_t threads : stress_thread_counts()) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> hits(kItems);
      parallel_for(
          kItems, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
          threads);
      for (std::size_t i = 0; i < kItems; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " round=" << round
                                     << " index=" << i;
    }
  }
}

TEST(ParallelStress, UnevenWorkWritesToDisjointSlotsWithoutRaces) {
  // Each body writes plain (non-atomic) memory, but only its own slot; the
  // work per item varies wildly so the dynamic queue actually rebalances.
  // Under TSan this certifies the fork-join edges of parallel_for: the final
  // reads on the calling thread must happen-after every worker write.
  constexpr std::size_t kItems = 192;
  for (const std::size_t threads : stress_thread_counts()) {
    std::vector<std::uint64_t> out(kItems, 0);
    parallel_for(
        kItems,
        [&](std::size_t i) {
          std::uint64_t acc = 0;
          const std::uint64_t spin = 1 + (i % 31) * 97;
          for (std::uint64_t k = 0; k < spin * 50; ++k) acc += k * k + i;
          out[i] = acc;
        },
        threads);
    for (std::size_t i = 0; i < kItems; ++i)
      ASSERT_NE(out[i], 0u) << "threads=" << threads << " index=" << i;
  }
}

TEST(ParallelStress, SharedAtomicAccumulationUnderContention) {
  constexpr std::size_t kItems = 10'000;
  for (const std::size_t threads : stress_thread_counts()) {
    std::atomic<std::uint64_t> sum{0};
    parallel_for(
        kItems, [&](std::size_t i) { sum.fetch_add(i, std::memory_order_relaxed); },
        threads);
    EXPECT_EQ(sum.load(), kItems * (kItems - 1) / 2) << "threads=" << threads;
  }
}

TEST(ParallelStress, EveryWorkerThrowingPropagatesExactlyOneException) {
  // All bodies throw concurrently: the first-error latch in parallel_for is
  // itself shared mutable state worth hammering. Whatever wins the race must
  // be one of the thrown values, and the pool must still join cleanly.
  constexpr std::size_t kItems = 64;
  for (const std::size_t threads : stress_thread_counts()) {
    for (int round = 0; round < 10; ++round) {
      bool caught = false;
      try {
        parallel_for(
            kItems,
            [](std::size_t i) { throw std::runtime_error("w" + std::to_string(i)); },
            threads);
      } catch (const std::runtime_error& e) {
        caught = true;
        const std::string msg = e.what();
        ASSERT_EQ(msg.front(), 'w');
        const std::size_t idx = std::stoul(msg.substr(1));
        ASSERT_LT(idx, kItems);
      }
      ASSERT_TRUE(caught) << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ParallelStress, ExceptionAmidHealthyWorkersStillJoins) {
  constexpr std::size_t kItems = 512;
  for (const std::size_t threads : stress_thread_counts()) {
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(
        parallel_for(
            kItems,
            [&](std::size_t i) {
              if (i == kItems / 2) throw std::logic_error("mid-flight failure");
              ran.fetch_add(1, std::memory_order_relaxed);
            },
            threads),
        std::logic_error);
    // Everything that did run completed before the join; no lost updates.
    EXPECT_LE(ran.load(), kItems - 1);
  }
}

TEST(ParallelStress, NestedFanOutDoesNotDeadlockOrRace) {
  // Inner fan-outs spawn their own pools; nothing in parallel_for is global,
  // so nesting must compose. Kept small: this multiplies threads.
  std::vector<std::atomic<int>> hits(64);
  parallel_for(
      8,
      [&](std::size_t outer) {
        parallel_for(
            8,
            [&](std::size_t inner) {
              hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
            },
            /*threads=*/2);
      },
      /*threads=*/4);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// --- SweepExecutor under contention -----------------------------------------

/// Small but real matrix: every job simulates, so worker threads spend real
/// time inside the cache/ATD core while others fan out around them.
runner::RunMatrix stress_matrix() {
  runner::RunMatrix m;
  m.configs = {"NOPART-L", "M-0.75N"};
  const auto& all = workloads::workloads_2t();
  m.workloads = {all[0], all[1], all[2]};
  m.l2_kb = {128, 256};
  m.l1d = cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  m.instr = 6'000;
  m.warmup = 1'500;
  m.interval_cycles = 20'000;
  m.sampling_ratio = 8;
  m.seed = 1234;
  return m;
}

std::string csv_of(const std::vector<runner::JobResult>& results) {
  std::ostringstream os;
  runner::write_csv(os, results);
  return os.str();
}

TEST(SweepExecutorStress, CsvByteIdenticalAcrossAllThreadCounts) {
  const auto jobs = stress_matrix().expand();
  std::string reference;
  for (const std::size_t threads : stress_thread_counts()) {
    const runner::SweepExecutor ex({.threads = threads, .progress = false});
    const std::string csv = csv_of(ex.run(jobs));
    if (reference.empty()) {
      reference = csv;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}

TEST(SweepExecutorStress, ProgressLinesStayWholeUnderOversubscription) {
  // --progress writes one fprintf per finished job from whichever worker
  // finished it. Each line must come out whole (glibc locks the FILE* per
  // call) and the completion counters must be a permutation of 1..N even
  // though completion order is nondeterministic.
  const auto jobs = stress_matrix().expand();
  const std::size_t total = jobs.size();
  const runner::SweepExecutor ex({.threads = 8, .progress = true});
  ::testing::internal::CaptureStderr();
  const auto results = ex.run(jobs);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(results.size(), total);

  std::istringstream is(err);
  std::string line;
  std::multiset<std::size_t> counters;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    ASSERT_TRUE(line.starts_with("plrupart: [")) << "mangled line: " << line;
    ASSERT_NE(line.find("] "), std::string::npos) << line;
    ASSERT_NE(line.find(" done ("), std::string::npos) << "interleaved line: " << line;
    // Serial jobs end "...M acc/s)", intra-run-sharded jobs "...M acc/s, K shards)".
    ASSERT_TRUE(line.ends_with("M acc/s)") || line.ends_with("shards)"))
        << "truncated line: " << line;
    const std::size_t open = line.find('[');
    const std::size_t slash = line.find('/', open);
    counters.insert(std::stoul(line.substr(open + 1, slash - open - 1)));
  }
  EXPECT_EQ(lines, total);
  std::multiset<std::size_t> expected;
  for (std::size_t n = 1; n <= total; ++n) expected.insert(n);
  EXPECT_EQ(counters, expected) << "stderr was:\n" << err;
}

TEST(SweepExecutorStress, EmptyJobListIsANoop) {
  const runner::SweepExecutor ex({.threads = 8, .progress = true});
  EXPECT_TRUE(ex.run({}).empty());
}

TEST(SweepExecutorStress, TimedProgressLinesReportSimulatedCycleRate) {
  // Timed jobs are much slower per access than functional ones, so an
  // acc/s-only progress line would read as a regression; the line must carry
  // the simulated cycle rate alongside.
  runner::RunMatrix m = stress_matrix();
  m.configs = {"M-0.75N"};
  m.workloads.resize(1);
  m.l2_kb = {128};
  m.timing = sim::TimingMode::kTimed;
  const auto jobs = m.expand();
  const runner::SweepExecutor ex({.threads = 1, .progress = true});
  ::testing::internal::CaptureStderr();
  const auto results = ex.run(jobs);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(results.size(), jobs.size());

  std::istringstream is(err);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    ASSERT_TRUE(line.starts_with("plrupart: [")) << "mangled line: " << line;
    EXPECT_NE(line.find("M acc/s, "), std::string::npos) << "line: " << line;
    EXPECT_TRUE(line.ends_with("M cyc/s)")) << "line: " << line;
  }
  EXPECT_EQ(lines, jobs.size());
}

// --- Intra-run front-end pipeline under contention ---------------------------

/// Like stress_matrix(), but with a pseudo-LRU partitioned config (the
/// paper's centre of mass) alongside the unpartitioned LRU and the NRU ones.
runner::RunMatrix sharded_stress_matrix() {
  runner::RunMatrix m = stress_matrix();
  m.configs = {"M-BT", "NOPART-L", "M-0.75N"};
  m.workloads.resize(2);
  return m;
}

TEST(ShardedSimStress, CsvByteIdenticalAcrossSimThreadCounts) {
  // The issue contract: {1, 2, 8, hardware} intra-run workers, CSV bytes
  // identical at every count — here with the sweep pool (2 jobs at a time)
  // layered on top, so the producers of different jobs contend.
  runner::RunMatrix m = sharded_stress_matrix();
  std::string reference;
  for (const std::size_t sim_threads : stress_thread_counts()) {
    m.sim_threads = static_cast<std::uint32_t>(sim_threads);
    const runner::SweepExecutor ex({.threads = 2, .progress = false});
    const std::string csv = csv_of(ex.run(m.expand()));
    if (reference.empty()) {
      reference = csv;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(csv, reference) << "sim_threads=" << sim_threads;
    }
  }
}

TEST(ShardedSimStress, RepeatedShardedRunsAreStable) {
  // Many short pipelined runs back to back: thread creation/join churn is where
  // lost-wakeup and reuse-after-join bugs live, and TSan needs the repetition
  // to observe conflicting pairs.
  runner::RunMatrix m = sharded_stress_matrix();
  m.configs = {"M-BT"};
  m.sim_threads = 4;
  const auto jobs = m.expand();
  const runner::SweepExecutor ex({.threads = 1, .progress = false});
  const std::string reference = csv_of(ex.run(jobs));
  for (int round = 0; round < 5; ++round)
    EXPECT_EQ(csv_of(ex.run(jobs)), reference) << "round=" << round;
}

TEST(ShardedSimStress, ProgressLinesReportAggregateShardCount)
{
  runner::RunMatrix m = sharded_stress_matrix();
  m.configs = {"M-BT"};  // every job shardable
  m.sim_threads = 2;
  const auto jobs = m.expand();
  const runner::SweepExecutor ex({.threads = 2, .progress = true});
  ::testing::internal::CaptureStderr();
  const auto results = ex.run(jobs);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(results.size(), jobs.size());
  for (const auto& jr : results) EXPECT_EQ(jr.result.sim_shards, 2u);

  std::istringstream is(err);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    // The line must say how many front-end producers the job ran.
    EXPECT_TRUE(line.ends_with("M acc/s, 2 shards)")) << "line: " << line;
  }
  EXPECT_EQ(lines, jobs.size());
}

/// A 4-core M-BT run over ProbeTraces, and a view of each probe.
struct ProbedRun {
  sim::SimConfig config;
  std::vector<std::unique_ptr<sim::TraceSource>> traces;
  std::vector<const testing::ProbeTrace*> probes;
};

/// The run at `sim_threads`; the cores in `probed` throw at op `throw_at`.
ProbedRun make_probed_run(std::uint32_t sim_threads,
                          const std::set<std::uint32_t>& probed = {},
                          std::uint64_t throw_at = testing::ProbeTrace::kNever) {
  ProbedRun r;
  r.config.hierarchy.l1d =
      cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  const char* names[] = {"twolf", "art", "mcf", "gzip"};
  r.config.hierarchy.l2 = core::CpaConfig::from_acronym(
      "M-BT", 4,
      cache::Geometry{.size_bytes = 128 * 1024, .associativity = 16, .line_bytes = 128});
  r.config.hierarchy.l2.interval_cycles = 20'000;
  r.config.hierarchy.l2.sampling_ratio = 8;
  r.config.instr_limit = 8'000;
  r.config.warmup_instr = 2'000;
  r.config.sim_threads = sim_threads;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto& prof = workloads::benchmark(names[i]);
    r.config.cores.push_back(prof.core);
    auto probe = std::make_unique<testing::ProbeTrace>(
        workloads::make_trace(prof, i, 55),
        probed.contains(i) ? throw_at : testing::ProbeTrace::kNever);
    r.probes.push_back(probe.get());
    r.traces.push_back(std::move(probe));
  }
  return r;
}

TEST(ShardedSimStress, ExceptionInOneShardWorkerJoinsCleanlyAndPropagates) {
  // Cores 1 and 2 fail at the same op index, one on each producer, while
  // both producers keep filling their other core's ring. Every thread must
  // join, and exactly one error must surface: the one the serial replay
  // meets first. Repeated: the error hand-off and the join are shared state
  // worth hammering.
  const auto run = [](std::uint32_t sim_threads) -> std::string {
    ProbedRun r = make_probed_run(sim_threads, {1, 2}, 1'000);
    sim::CmpSimulator sim(std::move(r.config), std::move(r.traces));
    try {
      (void)sim.run();
    } catch (const testing::ProbeTraceError& e) {
      return e.what();
    }
    return "";
  };
  const std::string serial = run(1);
  ASSERT_NE(serial, "");
  for (int round = 0; round < 8; ++round)
    EXPECT_EQ(run(2), serial) << "round=" << round;
}

TEST(ShardedSimStress, EachCoreIsProducedByOneThreadOwningCoresModuloK) {
  // Producer p owns the cores c with c % K == p: each core's trace is read
  // by exactly one thread, cores 0 and 2 (and 1 and 3) share theirs, and the
  // replaying thread reads none.
  ProbedRun r = make_probed_run(2);
  const auto probes = r.probes;
  sim::CmpSimulator sim(std::move(r.config), std::move(r.traces));
  EXPECT_EQ(sim.run().sim_shards, 2u);
  std::vector<std::thread::id> owner;
  for (const auto* p : probes) {
    const auto ids = p->threads();
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_NE(*ids.begin(), std::this_thread::get_id());
    owner.push_back(*ids.begin());
  }
  EXPECT_EQ(owner[0], owner[2]);
  EXPECT_EQ(owner[1], owner[3]);
  EXPECT_NE(owner[0], owner[1]);
}

}  // namespace
}  // namespace plrupart
