// Pipelined execution mode (SimConfig::sim_threads): the whole point of the
// mode is that it is invisible — every CSV-visible field of SimResult and
// every repartition event must be bit-identical to the serial loop at any
// producer count, for every configuration. This suite pins that contract at
// the simulator API level, along with where producer errors surface;
// tests/test_parallel_stress.cpp re-checks it under TSan through the sweep
// executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/parallel.hpp"
#include "plrupart/common/assert.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
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
  // would idle: K clamps to the core count, and 0 means hardware threads.
  const std::vector<std::string> names{"twolf", "art"};
  const auto producers = [&](std::uint32_t sim_threads) {
    CmpSimulator sim(small_config(names, "NOPART-L", sim_threads, 5'000, 0),
                     traces_for(names));
    return sim.run().sim_shards;
  };
  EXPECT_EQ(producers(64), 2u);
  EXPECT_EQ(producers(1), 1u);
  const auto hw = static_cast<std::uint32_t>(default_parallelism());
  EXPECT_EQ(producers(0), std::min(hw, 2u));
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

}  // namespace
}  // namespace plrupart::sim
