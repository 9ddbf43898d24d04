// Pipelined execution mode (SimConfig::sim_threads): the whole point of the
// mode is that it is invisible — every CSV-visible field of SimResult and
// every repartition event must be bit-identical to the serial loop at any
// producer count, for every configuration. This suite pins that contract at
// the simulator API level, along with where producer errors surface;
// tests/test_parallel_stress.cpp re-checks it under TSan through the sweep
// executor.
#include <gtest/gtest.h>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "plrupart/common/assert.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/workload_table.hpp"
#include "support/probe_trace.hpp"
#include "support/reference_replay.hpp"

namespace plrupart::sim {
namespace {

using workloads::benchmark;
using workloads::make_trace;

/// 256 KB / 16-way / 128 B lines, with a short interval so every run crosses
/// many controller boundaries while staying fast.
SimConfig small_config(const std::vector<std::string>& names, const char* acronym,
                       std::uint32_t sim_threads, std::uint64_t instr = 40'000,
                       std::uint64_t warmup = 10'000) {
  SimConfig cfg;
  cfg.hierarchy.l1d =
      cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
      acronym, static_cast<std::uint32_t>(names.size()),
      cache::Geometry{.size_bytes = 256 * 1024, .associativity = 16, .line_bytes = 128});
  cfg.hierarchy.l2.interval_cycles = 25'000;
  cfg.hierarchy.l2.sampling_ratio = 8;
  cfg.instr_limit = instr;
  cfg.warmup_instr = warmup;
  cfg.sim_threads = sim_threads;
  for (const auto& name : names) cfg.cores.push_back(benchmark(name).core);
  return cfg;
}

std::vector<std::unique_ptr<TraceSource>> traces_for(
    const std::vector<std::string>& names, std::uint64_t seed = 7) {
  std::vector<std::unique_ptr<TraceSource>> traces;
  for (std::uint32_t i = 0; i < names.size(); ++i)
    traces.push_back(make_trace(benchmark(names[i]), i, seed));
  return traces;
}

/// A finished run: its result plus the controller's decision history (empty
/// when the configuration is unpartitioned).
struct Outcome {
  SimResult result;
  std::vector<core::RepartitionEvent> history;
};

Outcome run_sim(CmpSimulator& sim) {
  Outcome out{sim.run(), {}};
  if (const auto* ctrl = sim.hierarchy().l2().controller()) out.history = ctrl->history();
  return out;
}

Outcome run_one(const std::vector<std::string>& names, const char* acronym,
                std::uint32_t sim_threads) {
  CmpSimulator sim(small_config(names, acronym, sim_threads), traces_for(names));
  return run_sim(sim);
}

/// Every CSV-visible field, compared exactly (doubles included: the sharded
/// replay executes the same float operations in the same order), and every
/// repartition decision — cycle and chosen allocation — event by event.
void expect_identical(const Outcome& serial_run, const Outcome& sharded_run,
                      const std::string& context) {
  ASSERT_EQ(serial_run.history.size(), sharded_run.history.size())
      << context << ": repartition count diverged";
  for (std::size_t i = 0; i < serial_run.history.size(); ++i) {
    EXPECT_EQ(serial_run.history[i].cycle, sharded_run.history[i].cycle)
        << context << " interval " << i;
    EXPECT_EQ(serial_run.history[i].partition, sharded_run.history[i].partition)
        << context << " interval " << i;
  }
  const SimResult& serial = serial_run.result;
  const SimResult& sharded = sharded_run.result;
  ASSERT_EQ(serial.threads.size(), sharded.threads.size()) << context;
  for (std::size_t i = 0; i < serial.threads.size(); ++i) {
    const auto& a = serial.threads[i];
    const auto& b = sharded.threads[i];
    EXPECT_EQ(a.benchmark, b.benchmark) << context << " core " << i;
    EXPECT_EQ(a.instructions, b.instructions) << context << " core " << i;
    EXPECT_EQ(a.cycles, b.cycles) << context << " core " << i;
    EXPECT_EQ(a.ipc, b.ipc) << context << " core " << i;
    EXPECT_EQ(a.mem.l1_accesses, b.mem.l1_accesses) << context << " core " << i;
    EXPECT_EQ(a.mem.l1_misses, b.mem.l1_misses) << context << " core " << i;
    EXPECT_EQ(a.mem.l2_accesses, b.mem.l2_accesses) << context << " core " << i;
    EXPECT_EQ(a.mem.l2_misses, b.mem.l2_misses) << context << " core " << i;
  }
  EXPECT_EQ(serial.wall_cycles, sharded.wall_cycles) << context;
  EXPECT_EQ(serial.repartitions, sharded.repartitions) << context;
  EXPECT_EQ(serial.l2_config, sharded.l2_config) << context;
}

TEST(ShardedSim, ByteIdenticalToSerialForEveryShardableConfig) {
  // Every configuration runs pipelined, NRU and Random included. Three cores
  // make K = 2 share a producer between cores 0 and 2, and K = 4 clamp to 3.
  const std::vector<std::string> names{"twolf", "art", "mcf"};
  for (const auto& acronym : core::CpaConfig::known_acronyms()) {
    const Outcome serial = run_one(names, acronym.c_str(), 1);
    if (core::CpaConfig::from_acronym(acronym, 3, {}).partitioned()) {
      EXPECT_FALSE(serial.history.empty()) << acronym << ": no boundary was crossed";
    }
    for (const std::uint32_t k : {2u, 3u, 4u}) {
      const Outcome piped = run_one(names, acronym.c_str(), k);
      EXPECT_EQ(piped.result.sim_shards, std::min(k, 3u)) << acronym;
      expect_identical(serial, piped, acronym + " @" + std::to_string(k));
    }
  }
}

TEST(ShardedSim, FourCoreRunMatchesSerial) {
  const std::vector<std::string> names{"twolf", "art", "mcf", "gzip"};
  const Outcome serial = run_one(names, "M-BT", 1);
  for (const std::uint32_t k : {2u, 3u, 4u, 7u}) {
    const Outcome piped = run_one(names, "M-BT", k);
    EXPECT_EQ(piped.result.sim_shards, std::min(k, 4u));
    expect_identical(serial, piped, "M-BT 4-core @" + std::to_string(k));
  }
}

TEST(ShardedSim, NruAndRandomConfigsNoLongerFallBackToSerial) {
  // NRU's cache-wide rotating pointer and Random's shared RNG stream live in
  // the L2, which only the replaying thread touches.
  const std::vector<std::string> names{"twolf", "art"};
  for (const char* acronym : {"M-0.75N", "NOPART-N", "NOPART-R"}) {
    const Outcome serial = run_one(names, acronym, 1);
    const Outcome piped = run_one(names, acronym, 2);
    EXPECT_EQ(piped.result.sim_shards, 2u) << acronym;
    expect_identical(serial, piped, std::string(acronym) + " @2");
  }
}

TEST(ShardedSim, ProducerCountClampsToCoreCountAndHonoursAuto) {
  // A producer owns cores c with c % K == p, so more producers than cores
  // would idle: K clamps to the core count. 0 takes only threads the process
  // leaves free, so with every thread held elsewhere it runs serially, and
  // only for a run long enough to repay the producers' start.
  const std::vector<std::string> names{"twolf", "art"};
  const auto producers = [&](std::uint32_t sim_threads, std::uint64_t instr) {
    CmpSimulator sim(small_config(names, "NOPART-L", sim_threads, instr, 0),
                     traces_for(names));
    return sim.run().sim_shards;
  };
  EXPECT_EQ(producers(64, 5'000), 2u);
  EXPECT_EQ(producers(1, 5'000), 1u);
  EXPECT_EQ(producers(0, 9'999), 1u) << "too short to repay its producers";
  const BusyThreads every_thread(default_parallelism());
  EXPECT_EQ(producers(0, 10'000), 1u);
  EXPECT_EQ(producers(2, 5'000), 2u) << "an explicit K ignores the budget";
}

/// The producers an auto run takes from `free` threads for `cores` cores:
/// the fewest that keep the busiest one's ceil(cores / K) cores as low as
/// the free threads can, and none (a serial run) below 2.
std::uint32_t balanced_producers(std::size_t cores, std::size_t free) {
  const std::size_t most = std::min(cores, free);
  if (most < 2) return 1;
  const std::size_t per_producer = (cores + most - 1) / most;
  return static_cast<std::uint32_t>((cores + per_producer - 1) / per_producer);
}

TEST(ShardedSim, AutoTakesTheFreeThreadsAndLeavesOneForATimedHelper) {
  // The replay thread is one of default_parallelism(); a timed run leaves
  // one more free for its overlay helper. On four CPUs: a functional 4-core
  // run takes 2 producers (not a 2/1/1 split), an 8-core one 3, a timed
  // 4-core one 2.
  const std::size_t cpus = default_parallelism();
  if (cpus < 3) GTEST_SKIP() << "needs 3 usable CPUs, has " << cpus;
  const std::vector<std::string> four{"fma3d", "swim", "mcf", "applu"};
  const std::vector<std::string> eight{"apsi", "crafty", "bzip2", "eon",
                                       "mcf",  "gcc",    "parser", "gzip"};
  for (const auto* names : {&four, &eight}) {
    for (const auto mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
      SimConfig cfg = small_config(*names, "M-0.75N", 0, 10'000, 0);
      cfg.timing_mode = mode;
      CmpSimulator sim(cfg, traces_for(*names));
      const std::size_t spare = mode == TimingMode::kTimed ? 1 : 0;
      EXPECT_EQ(sim.run().sim_shards,
                balanced_producers(names->size(), cpus - 1 - spare))
          << names->size() << " cores, " << to_string(mode);
    }
  }
  EXPECT_EQ(balanced_producers(4, 3), 2u);
  EXPECT_EQ(balanced_producers(8, 3), 3u);
  EXPECT_EQ(balanced_producers(8, 7), 4u);
  EXPECT_EQ(balanced_producers(2, 1), 1u);
}

TEST(ShardedSim, AutoRunsDirectInAForkedChildPinnedToOneCpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(mask), &mask), 0);
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &mask)) ++first_cpu;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first_cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) ::_exit(1);
    try {
      const std::vector<std::string> names{"twolf", "art"};
      CmpSimulator sim(small_config(names, "M-BT", 0, 10'000, 0), traces_for(names));
      ::_exit(sim.run().sim_shards == 1 ? 0 : 2);
    } catch (...) {
      ::_exit(3);
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: setaffinity failed, 2: producers on a one-CPU budget, 3: the run threw";
}

TEST(ShardedSim, SweepCountsItsWorkersBeforeAnyJobStarts) {
  // A sweep with a worker per CPU leaves no thread free, however its jobs
  // interleave: every auto job runs serially. One worker leaves the rest.
  runner::RunMatrix m;
  m.configs = {"M-0.75N"};
  m.workloads = {workloads::workloads_2t()[0]};
  m.l1d = cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  m.instr = 10'000;
  m.warmup = 0;
  m.sim_threads = 0;
  const std::size_t cpus = default_parallelism();
  const std::vector<runner::RunSpec> one = m.expand();
  std::vector<runner::RunSpec> jobs;
  for (std::size_t i = 0; i < 2 * cpus; ++i) jobs.push_back(one.front());
  const auto full = runner::SweepExecutor({.threads = cpus}).run(jobs);
  ASSERT_EQ(full.size(), jobs.size());
  for (const auto& jr : full) EXPECT_EQ(jr.result.sim_shards, 1u);
  const auto alone = runner::SweepExecutor({.threads = 1}).run(one);
  EXPECT_EQ(alone.front().result.sim_shards, balanced_producers(2, cpus - 1))
      << "the worker is the job's replay thread, counted once";
}

TEST(ShardedSim, MergedProfilerHistogramsMatchSerial) {
  // The replaying thread drives the real profilers, so their SDH registers
  // must equal the serial run's bit for bit.
  const std::vector<std::string> names{"twolf", "art"};
  CmpSimulator serial(small_config(names, "M-BT", 1), traces_for(names));
  CmpSimulator piped(small_config(names, "M-BT", 4), traces_for(names));
  (void)serial.run();
  const SimResult r = piped.run();
  ASSERT_EQ(r.sim_shards, 2u);
  for (std::uint32_t core = 0; core < names.size(); ++core) {
    const core::Sdh& a = serial.hierarchy().l2().profiler(core).sdh();
    const core::Sdh& b = piped.hierarchy().l2().profiler(core).sdh();
    ASSERT_EQ(a.associativity(), b.associativity());
    for (std::uint32_t reg = 1; reg <= a.associativity() + 1; ++reg)
      EXPECT_EQ(a.reg(reg), b.reg(reg)) << "core " << core << " r" << reg;
  }
}

TEST(ShardedSim, SecondRunThrowsInvariantError) {
  // run() consumes the hierarchy (warm caches, controller history); calling
  // it again must fail loudly with InvariantError, not return warm garbage.
  const std::vector<std::string> names{"twolf"};
  CmpSimulator sim(small_config(names, "NOPART-L", 1, 5'000, 0), traces_for(names));
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), InvariantError);
}

TEST(ShardedSim, SecondRunThrowsInvariantErrorOnShardedPathToo) {
  const std::vector<std::string> names{"twolf", "art"};
  CmpSimulator sim(small_config(names, "M-BT", 2, 5'000, 0), traces_for(names));
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), InvariantError);
}

TEST(ShardedSim, ZeroWarmupAndSingleCoreWorkSharded) {
  // Degenerate corners: no warmup baseline snapshot, and a one-core "CMP"
  // (argmin always picks core 0) whose 8 requested producers clamp to 1.
  const std::vector<std::string> names{"twolf"};
  CmpSimulator a(small_config(names, "NOPART-BT", 1, 20'000, 0), traces_for(names));
  CmpSimulator b(small_config(names, "NOPART-BT", 8, 20'000, 0), traces_for(names));
  const Outcome ra = run_sim(a);
  const Outcome rb = run_sim(b);
  EXPECT_EQ(rb.result.sim_shards, 1u);
  expect_identical(ra, rb, "NOPART-BT 1-core warmup=0 @8");
}

// --- Producer errors surface where the serial loop would meet them -----------

/// `names`' traces, each wrapped in a ProbeTrace; core `failing` throws at op
/// `throw_at`.
std::vector<std::unique_ptr<TraceSource>> probed_traces(
    const std::vector<std::string>& names, std::uint32_t failing,
    std::uint64_t throw_at) {
  std::vector<std::unique_ptr<TraceSource>> traces;
  auto plain = traces_for(names);
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    traces.push_back(std::make_unique<testing::ProbeTrace>(
        std::move(plain[i]), i == failing ? throw_at : testing::ProbeTrace::kNever));
  }
  return traces;
}

/// How many ops the serial order executes from each core's trace. The per-op
/// reference loop fetches exactly one op per step, so its fetch counts are
/// those; the simulator's own fetch counts are not, because every port reads
/// at least one op past the last one it executes.
std::vector<std::uint64_t> serial_ops_per_core(const std::vector<std::string>& names,
                                               const char* acronym) {
  return testing::reference_replay(small_config(names, acronym, 1), traces_for(names))
      .ops;
}

/// The run's outcome, or the type and message of what it threw.
struct RunOrError {
  Outcome outcome;
  std::string error;            ///< "<type>: <what>", empty when the run finished
  std::uint64_t failing_calls;  ///< next() calls on the failing core's trace
};

RunOrError run_probed(const std::vector<std::string>& names, const char* acronym,
                      std::uint32_t sim_threads, std::uint32_t failing,
                      std::uint64_t throw_at) {
  auto traces = probed_traces(names, failing, throw_at);
  const auto* probe = static_cast<const testing::ProbeTrace*>(traces[failing].get());
  CmpSimulator sim(small_config(names, acronym, sim_threads), std::move(traces));
  try {
    Outcome out = run_sim(sim);
    return {std::move(out), {}, probe->calls()};
  } catch (const std::exception& e) {
    return {{}, std::string(typeid(e).name()) + ": " + e.what(), probe->calls()};
  }
}

TEST(ShardedSim, ProducerErrorPastTheLastFreezeIsNeverSeen) {
  // Every port reads ahead of the replay (a serial run by at least one op
  // per core, the run-ahead through L1 hits by more); an op the serial order
  // never executes must not fail the run. The failing op is the one right
  // after the serial order's last. A serial run always fetches it; a
  // producer does unless it opens a new 64-op batch.
  const std::vector<std::string> names{"twolf", "art", "mcf"};
  const auto ops = serial_ops_per_core(names, "M-BT");
  const Outcome serial = run_one(names, "M-BT", 1);
  for (std::uint32_t failing = 0; failing < names.size(); ++failing) {
    for (const std::uint32_t k : {1u, 2u, 3u}) {
      const RunOrError run = run_probed(names, "M-BT", k, failing, ops[failing]);
      ASSERT_EQ(run.error, "") << "core " << failing << " @" << k;
      if (k == 1 || ops[failing] % 64 != 0) {
        EXPECT_GT(run.failing_calls, ops[failing]) << "core " << failing << " @" << k;
      }
      expect_identical(serial, run.outcome,
                       "core " + std::to_string(failing) + " @" + std::to_string(k));
    }
  }
}

TEST(ShardedSim, ProducerErrorBeforeTheQuotaMatchesSerial) {
  // An op the serial order does execute: every K throws the same exception,
  // of the same type, as the per-op reference loop.
  const std::vector<std::string> names{"twolf", "art", "mcf"};
  const auto ops = serial_ops_per_core(names, "M-BT");
  for (std::uint32_t failing = 0; failing < names.size(); ++failing) {
    const std::uint64_t throw_at = ops[failing] / 2;
    std::string reference;
    try {
      (void)testing::reference_replay(small_config(names, "M-BT", 1),
                                      probed_traces(names, failing, throw_at));
    } catch (const std::exception& e) {
      reference = std::string(typeid(e).name()) + ": " + e.what();
    }
    ASSERT_NE(reference, "") << "core " << failing;
    for (const std::uint32_t k : {1u, 2u, 3u}) {
      EXPECT_EQ(run_probed(names, "M-BT", k, failing, throw_at).error, reference)
          << "core " << failing << " @" << k;
    }
  }
}

// --- Runs of L1 hits ---------------------------------------------------------
// A producer ships consecutive L1 hits whose gaps fit a byte as runs of up to
// 15 per ring slot, and the replay commits the rest of a hit's run in one
// loop. These traces put gaps, quotas, warmups and failures at a run's edges.

/// One op of a PatternTrace: `gap` non-memory instructions, then an access
/// that hits the L1 (the core's hot line) or misses it.
struct Step {
  std::uint32_t gap = 0;
  bool hit = true;
};

std::vector<Step> hits(std::size_t n, std::uint32_t gap = 3) {
  return std::vector<Step>(n, Step{.gap = gap, .hit = true});
}
std::vector<Step> operator+(std::vector<Step> a, const std::vector<Step>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}
const std::vector<Step> kMiss{Step{.gap = 2, .hit = false}};

/// A trace that plays `head` once and then `loop` over and over. A hit reads
/// the core's hot line; a miss reads the next line of a 128 KiB stream that
/// skips the hot line's set of the 16-set test L1, so every hit but the
/// first touch of the hot line hits. Every third op writes.
class PatternTrace final : public TraceSource {
 public:
  PatternTrace(std::vector<Step> head, std::vector<Step> loop, std::uint32_t core)
      : head_(std::move(head)),
        loop_(std::move(loop)),
        base_(cache::Addr{core + 1} << 32) {}

  MemOp next() override {
    const Step s =
        i_ < head_.size() ? head_[i_] : loop_[(i_ - head_.size()) % loop_.size()];
    ++i_;
    MemOp op{.addr = base_, .write = i_ % 3 == 0, .gap_instrs = s.gap};
    if (!s.hit) {
      do {
        line_ = (line_ + 1) % kStreamLines;
      } while (line_ % 16 == 0);
      op.addr += line_ * 128;
    }
    return op;
  }
  [[nodiscard]] std::string name() const override { return "pattern"; }

 private:
  static constexpr cache::Addr kStreamLines = 1024;
  std::vector<Step> head_;
  std::vector<Step> loop_;
  cache::Addr base_;
  cache::Addr line_ = 0;
  std::uint64_t i_ = 0;
};

/// Each core's trace: {head, loop}.
using Patterns = std::vector<std::pair<std::vector<Step>, std::vector<Step>>>;

/// One run of `patterns` on cores with twolf's parameters (the same on every
/// core, so equal gaps keep the clocks level); core 0 throws at op
/// `throw_at`.
RunOrError run_patterns(const Patterns& patterns, std::uint32_t sim_threads,
                        TimingMode mode, std::uint64_t instr, std::uint64_t warmup,
                        std::uint64_t throw_at) {
  const std::vector<std::string> names(patterns.size(), "twolf");
  SimConfig cfg = small_config(names, "M-BT", sim_threads, instr, warmup);
  cfg.timing_mode = mode;
  std::vector<std::unique_ptr<TraceSource>> traces;
  for (std::uint32_t c = 0; c < patterns.size(); ++c) {
    traces.push_back(std::make_unique<testing::ProbeTrace>(
        std::make_unique<PatternTrace>(patterns[c].first, patterns[c].second, c),
        c == 0 ? throw_at : testing::ProbeTrace::kNever));
  }
  CmpSimulator sim(cfg, std::move(traces));
  try {
    return {run_sim(sim), {}, 0};
  } catch (const std::exception& e) {
    return {{}, std::string(typeid(e).name()) + ": " + e.what(), 0};
  }
}

/// Run `patterns` serially and at K = 2, 3 and 7, functional and timed, and
/// expect every pipelined run to match the serial one field for field,
/// repartition history included, or to throw the same error. Returns the
/// serial runs' errors ("" for a run that finished).
std::vector<std::string> expect_runs_match_serial(
    const Patterns& patterns, std::uint64_t instr, std::uint64_t warmup,
    const std::string& what, std::uint64_t throw_at = testing::ProbeTrace::kNever) {
  std::vector<std::string> errors;
  for (const auto mode : {TimingMode::kFunctional, TimingMode::kTimed}) {
    const RunOrError serial = run_patterns(patterns, 1, mode, instr, warmup, throw_at);
    errors.push_back(serial.error);
    if (serial.error.empty()) {
      EXPECT_FALSE(serial.outcome.history.empty()) << what << ": no boundary was crossed";
    }
    for (const std::uint32_t k : {2u, 3u, 7u}) {
      const std::string context = what + " " + to_string(mode) + " @" + std::to_string(k);
      const RunOrError piped = run_patterns(patterns, k, mode, instr, warmup, throw_at);
      EXPECT_EQ(piped.error, serial.error) << context;
      if (!serial.error.empty() || !piped.error.empty()) continue;
      EXPECT_EQ(piped.outcome.result.sim_shards,
                std::min<std::uint32_t>(k, static_cast<std::uint32_t>(patterns.size())))
          << context;
      const TimedStats& a = serial.outcome.result.timed;
      const TimedStats& b = piped.outcome.result.timed;
      EXPECT_EQ(a.dram_reads, b.dram_reads) << context;
      EXPECT_EQ(a.dram_writebacks, b.dram_writebacks) << context;
      EXPECT_EQ(a.row_hits, b.row_hits) << context;
      EXPECT_EQ(a.row_misses, b.row_misses) << context;
      EXPECT_EQ(a.bank_conflicts, b.bank_conflicts) << context;
      EXPECT_EQ(a.mshr_coalesced, b.mshr_coalesced) << context;
      EXPECT_EQ(a.mshr_full_stalls, b.mshr_full_stalls) << context;
      EXPECT_EQ(a.wb_full_stalls, b.wb_full_stalls) << context;
      EXPECT_EQ(a.dram_bytes, b.dram_bytes) << context;
      EXPECT_EQ(a.mshr_peak, b.mshr_peak) << context;
      expect_identical(serial.outcome, piped.outcome, context);
    }
  }
  return errors;
}

TEST(ShardedSimRuns, GapsAtTheByteEdgeAndBeyond) {
  // 255 is the largest gap a run slot holds; 256 and up go as op slots. The
  // same 2^32 - 1 gap on every core's first op keeps the clocks level and
  // puts each core past the warmup at once.
  const std::uint32_t huge = std::numeric_limits<std::uint32_t>::max();
  const auto edges = hits(3, 254) + hits(1, 255) + hits(2, 256) + hits(2, 255) + hits(4) +
                     hits(1, 256) + hits(5, 254) + kMiss;
  const Patterns patterns{{{}, edges}, {hits(1, 255), edges + hits(7, 255) + kMiss},
                          {{}, hits(9, 256) + kMiss + hits(3, 254)}};
  for (const std::uint64_t warmup : {0ULL, 100'000ULL}) {
    expect_runs_match_serial(patterns, 400'000, warmup,
                             "edges warmup " + std::to_string(warmup));
  }
  Patterns giant = patterns;
  for (auto& [head, loop] : giant) {
    head.insert(head.begin(), Step{.gap = huge, .hit = true});
  }
  expect_runs_match_serial(giant, 40'000, 10'000, "2^32-1 gap");
}

TEST(ShardedSimRuns, RunsAtTheSlotEdges) {
  // 15 hits fill one run slot exactly; 16 spill one hit into an op slot and
  // 18 three into a second run. Two hits go as op slots, three as a run.
  const Patterns patterns{{{}, hits(15) + kMiss + hits(2) + kMiss},
                          {{}, hits(16) + kMiss + hits(3) + kMiss},
                          {{}, hits(15) + kMiss + hits(16) + kMiss + hits(30) + kMiss +
                                   hits(17) + kMiss + hits(18) + kMiss}};
  expect_runs_match_serial(patterns, 40'000, 10'000, "slot edges");
  expect_runs_match_serial(patterns, 40'000, 0, "slot edges warmup 0");
}

TEST(ShardedSimRuns, QuotaAndWarmupInsideARun) {
  // Every op adds gap + 1 = 2 instructions, and 100-hit stretches make the
  // quota and the warmup boundary land inside a run for these sizes.
  const Patterns patterns{{{}, hits(100, 1) + kMiss},
                          {{}, hits(40, 1) + kMiss + hits(7, 1) + kMiss},
                          {{}, hits(63, 1) + kMiss}};
  for (const std::uint64_t instr : {20'000ULL, 20'001ULL, 20'007ULL}) {
    for (const std::uint64_t warmup : {0ULL, 1ULL, 7ULL, 10'003ULL}) {
      expect_runs_match_serial(patterns, instr, warmup,
                               std::to_string(instr) + "/" + std::to_string(warmup));
    }
  }
}

TEST(ShardedSimRuns, AllHitFrozenCoreHandsOpsToTheArgmin) {
  // Core 0 only ever hits: it freezes first and then spins on its hot line,
  // so it reaches the argmin only through kRunCap while the missing cores
  // run to their quotas.
  const Patterns patterns{{{}, hits(1, 0)},
                          {{}, hits(2) + kMiss},
                          {{}, kMiss + hits(1) + kMiss}};
  for (const std::uint64_t warmup : {0ULL, 10'000ULL}) {
    expect_runs_match_serial(patterns, 40'000, warmup,
                             "frozen warmup " + std::to_string(warmup));
  }
}

TEST(ShardedSimRuns, ProducerFailureRightAfterARunPastTheLastOpIsNeverSeen) {
  // Core 0, the slowest, freezes last, on a hit; the op after its quota op
  // fails. The hits before that op sit in the producer's unfinished run:
  // they must reach the ring ahead of the failed record, or the replay meets
  // the failure before the last freeze.
  const std::vector<Step> loop = hits(6) + kMiss;
  const Patterns patterns{{{}, loop}, {{}, hits(20) + kMiss}, {{}, hits(30) + kMiss}};
  const std::vector<std::string> names(patterns.size(), "twolf");
  // The first quota whose freeze op on core 0 is a hit.
  for (std::uint64_t instr = 40'000; instr < 40'010; ++instr) {
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (std::uint32_t c = 0; c < patterns.size(); ++c) {
      traces.push_back(
          std::make_unique<PatternTrace>(patterns[c].first, patterns[c].second, c));
    }
    const std::uint64_t last =
        testing::reference_replay(small_config(names, "M-BT", 1, instr),
                                  std::move(traces))
            .ops[0];
    if (!loop[(last - 1) % loop.size()].hit) continue;
    const auto errors =
        expect_runs_match_serial(patterns, instr, 10'000, "past the last", last);
    for (const auto& error : errors) EXPECT_EQ(error, "");
    return;
  }
  FAIL() << "no quota puts core 0's last op on a hit";
}

TEST(ShardedSimRuns, ProducerFailureRightAfterARun) {
  // Core 0's trace fails where its 17th or 11th hit would be: right after a
  // full run slot and one more hit, or after a partial run. The run before
  // the failure commits and the error is the serial one.
  const Patterns patterns{{{}, hits(16) + kMiss},
                          {{}, hits(5) + kMiss},
                          {{}, hits(20) + kMiss}};
  for (const std::uint64_t throw_at : {16ULL, 17ULL * 40 + 16, 17ULL * 40 + 10}) {
    for (const std::uint64_t warmup : {0ULL, 10'000ULL}) {
      const auto errors = expect_runs_match_serial(
          patterns, 40'000, warmup, "throw at " + std::to_string(throw_at), throw_at);
      for (const auto& error : errors) {
        EXPECT_NE(error.find("failed at op " + std::to_string(throw_at)),
                  std::string::npos)
            << error;
      }
    }
  }
}

}  // namespace
}  // namespace plrupart::sim
