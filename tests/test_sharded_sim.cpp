// Set-sharded execution mode (SimConfig::sim_threads): the whole point of the
// mode is that it is invisible — every CSV-visible field of SimResult must be
// bit-identical to the serial loop at any shard count, for every supported
// configuration, and configurations the mode cannot shard must silently run
// serial with the same results. This suite pins that contract at the
// simulator API level; tests/test_parallel_stress.cpp re-checks it under TSan
// through the sweep executor.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "plrupart/common/assert.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "sim/sharded_replay.hpp"

namespace plrupart::sim {
namespace {

using workloads::benchmark;
using workloads::make_trace;

/// 256 KB / 16-way / 128 B lines = 128 sets: room for 8 shards while keeping
/// runs fast. The short interval makes every run cross many controller
/// boundaries, so the barrier/merge path is exercised hard.
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

/// Every configuration acronym the shardability predicate accepts.
const std::vector<const char*>& shardable_configs() {
  static const std::vector<const char*> configs{
      "C-L", "M-L", "M-BT", "M-RRIP", "NOPART-L", "NOPART-BT", "NOPART-RRIP"};
  return configs;
}

TEST(ShardedSim, ByteIdenticalToSerialForEveryShardableConfig) {
  const std::vector<std::string> names{"twolf", "art"};
  for (const char* acronym : shardable_configs()) {
    const Outcome serial = run_one(names, acronym, 1);
    if (core::CpaConfig::from_acronym(acronym, 2, {}).partitioned()) {
      EXPECT_FALSE(serial.history.empty()) << acronym << ": no boundary was crossed";
    }
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      const Outcome sharded = run_one(names, acronym, shards);
      EXPECT_EQ(sharded.result.sim_shards, shards) << acronym;
      expect_identical(serial, sharded,
                       std::string(acronym) + " @" + std::to_string(shards));
    }
  }
}

TEST(ShardedSim, FourCoreRunMatchesSerial) {
  const std::vector<std::string> names{"twolf", "art", "mcf", "gzip"};
  const Outcome serial = run_one(names, "M-BT", 1);
  const Outcome sharded = run_one(names, "M-BT", 4);
  EXPECT_EQ(sharded.result.sim_shards, 4u);
  expect_identical(serial, sharded, "M-BT 4-core @4");
}

TEST(ShardedSim, UnshardableConfigsFallBackToSerialWithIdenticalResults) {
  // NRU carries one cache-wide rotating pointer and Random one shared RNG
  // stream; both must silently run the serial loop.
  const std::vector<std::string> names{"twolf", "art"};
  for (const char* acronym : {"M-0.75N", "NOPART-N", "NOPART-R"}) {
    const Outcome serial = run_one(names, acronym, 1);
    const Outcome sharded = run_one(names, acronym, 4);
    EXPECT_EQ(sharded.result.sim_shards, 1u) << acronym << " must fall back to serial";
    expect_identical(serial, sharded, std::string(acronym) + " fallback");
  }
}

TEST(ShardedSim, ShardabilityPredicateMatchesConfigState) {
  const auto geo =
      cache::Geometry{.size_bytes = 256 * 1024, .associativity = 16, .line_bytes = 128};
  for (const char* acronym : shardable_configs())
    EXPECT_TRUE(internal::set_sharding_supported(
        core::CpaConfig::from_acronym(acronym, 2, geo)))
        << acronym;
  for (const char* acronym : {"M-1.0N", "M-0.75N", "M-0.5N", "NOPART-N", "NOPART-R"})
    EXPECT_FALSE(internal::set_sharding_supported(
        core::CpaConfig::from_acronym(acronym, 2, geo)))
        << acronym;
}

TEST(ShardedSim, ResolveClampsToSetCountAndHonoursAuto) {
  // 16 KB / 16-way / 128 B lines = 8 sets: an absurd sim_threads request must
  // clamp to the set count, and 0 must resolve to hardware concurrency.
  SimConfig cfg = small_config({"twolf", "art"}, "NOPART-L", 64);
  cfg.hierarchy.l2.geometry =
      cache::Geometry{.size_bytes = 16 * 1024, .associativity = 16, .line_bytes = 128};
  EXPECT_EQ(internal::resolve_sim_shards(cfg), 8u);

  cfg.sim_threads = 0;
  const std::uint32_t hw = static_cast<std::uint32_t>(default_parallelism());
  EXPECT_EQ(internal::resolve_sim_shards(cfg), std::min(hw, 8u) <= 1 ? 1u
                                                   : std::min(hw, 8u));

  cfg.sim_threads = 1;
  EXPECT_EQ(internal::resolve_sim_shards(cfg), 1u);
}

TEST(ShardedSim, MergedProfilerHistogramsMatchSerial) {
  // After the final merge, the canonical profilers' SDH registers must equal
  // the serial run's bit for bit: the per-shard replicas partition exactly the
  // accesses the serial profiler saw, and uint64 register sums are exact.
  const std::vector<std::string> names{"twolf", "art"};
  CmpSimulator serial(small_config(names, "M-BT", 1), traces_for(names));
  CmpSimulator sharded(small_config(names, "M-BT", 4), traces_for(names));
  (void)serial.run();
  const SimResult r = sharded.run();
  ASSERT_EQ(r.sim_shards, 4u);
  for (std::uint32_t core = 0; core < names.size(); ++core) {
    const core::Sdh& a = serial.hierarchy().l2().profiler(core).sdh();
    const core::Sdh& b = sharded.hierarchy().l2().profiler(core).sdh();
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
  // Degenerate corners of the replicated loop: no warmup baseline snapshot,
  // and a one-core "CMP" (argmin always picks core 0).
  const std::vector<std::string> names{"twolf"};
  SimConfig serial_cfg = small_config(names, "NOPART-BT", 1, 20'000, 0);
  SimConfig sharded_cfg = small_config(names, "NOPART-BT", 8, 20'000, 0);
  CmpSimulator a(std::move(serial_cfg), traces_for(names));
  CmpSimulator b(std::move(sharded_cfg), traces_for(names));
  const Outcome ra = run_sim(a);
  const Outcome rb = run_sim(b);
  EXPECT_EQ(rb.result.sim_shards, 8u);
  expect_identical(ra, rb, "NOPART-BT 1-core warmup=0 @8");
}

}  // namespace
}  // namespace plrupart::sim
