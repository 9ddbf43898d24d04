// End-to-end determinism across every shipped configuration: identical
// (config, seed) pairs must produce bit-identical results — the property all
// benchmark comparisons in this repo rest on.
#include <gtest/gtest.h>

#include <vector>

#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"

namespace plrupart {
namespace {

class ConfigDeterminism : public ::testing::TestWithParam<const char*> {};

sim::SimResult run_once(const std::string& acronym, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.hierarchy.l1d =
      cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
      acronym, 2,
      cache::Geometry{.size_bytes = 128 * 1024, .associativity = 16, .line_bytes = 128});
  cfg.hierarchy.l2.interval_cycles = 40'000;
  cfg.instr_limit = 60'000;
  cfg.warmup_instr = 20'000;
  std::vector<std::unique_ptr<sim::TraceSource>> traces;
  for (std::uint32_t i = 0; i < 2; ++i) {
    const auto& prof = workloads::benchmark(i == 0 ? "vpr" : "gap");
    cfg.cores.push_back(prof.core);
    traces.push_back(workloads::make_trace(prof, i, seed));
  }
  sim::CmpSimulator sim(std::move(cfg), std::move(traces));
  return sim.run();
}

TEST_P(ConfigDeterminism, IdenticalRunsAreBitIdentical) {
  const auto a = run_once(GetParam(), 77);
  const auto b = run_once(GetParam(), 77);
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t i = 0; i < a.threads.size(); ++i) {
    EXPECT_EQ(a.threads[i].instructions, b.threads[i].instructions);
    EXPECT_DOUBLE_EQ(a.threads[i].cycles, b.threads[i].cycles);
    EXPECT_EQ(a.threads[i].mem.l1_misses, b.threads[i].mem.l1_misses);
    EXPECT_EQ(a.threads[i].mem.l2_accesses, b.threads[i].mem.l2_accesses);
    EXPECT_EQ(a.threads[i].mem.l2_misses, b.threads[i].mem.l2_misses);
  }
  EXPECT_DOUBLE_EQ(a.wall_cycles, b.wall_cycles);
  EXPECT_EQ(a.repartitions, b.repartitions);
}

TEST_P(ConfigDeterminism, DifferentSeedsDiverge) {
  const auto a = run_once(GetParam(), 1);
  const auto b = run_once(GetParam(), 2);
  // Some observable must differ (addresses, interleavings).
  const bool differs = a.threads[0].mem.l2_misses != b.threads[0].mem.l2_misses ||
                       a.threads[1].mem.l2_misses != b.threads[1].mem.l2_misses ||
                       a.wall_cycles != b.wall_cycles;
  EXPECT_TRUE(differs);
}

TEST_P(ConfigDeterminism, RunsProduceWork) {
  const auto r = run_once(GetParam(), 5);
  for (const auto& t : r.threads) {
    EXPECT_GE(t.instructions, 60'000ULL);
    EXPECT_GT(t.ipc, 0.0);
    EXPECT_GT(t.mem.l2_accesses, 0ULL) << "workload must exercise the L2";
  }
}

std::string config_name(const ::testing::TestParamInfo<const char*>& param_info) {
  std::string s = param_info.param;
  for (auto& c : s) {
    if (c == '-' || c == '.') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigDeterminism,
                         ::testing::Values("C-L", "M-L", "M-1.0N", "M-0.75N", "M-0.5N",
                                           "M-BT", "M-RRIP", "NOPART-L", "NOPART-N",
                                           "NOPART-BT", "NOPART-RRIP"),
                         config_name);

}  // namespace
}  // namespace plrupart
