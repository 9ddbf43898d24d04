// The replay loop against its frozen per-op reference
// (tests/support/reference_replay.hpp), on seeded generated cases.
//
// After the measurement windows open, the production loop lets each core run
// ahead through its private-L1 hits and orders only the ops with effects
// outside their own core: L1 misses (L2 accesses), the op that reaches a
// core's quota (its freeze), failed fetches and the op after the run cap. The
// reference executes one op per argmin step. Every CSV-visible result field,
// the controller history and the timed counters must agree bit for bit.
//
// Every acronym gets its own cases; each case draws the rest:
//  * 1-8 cores, warmup 0, 3 or the CLI default (instr / 2), and an
//    instruction quota of 1, 7 or 20k;
//  * functional or timed clocks, and K = 1, 2 or 3 (serial or pipelined);
//  * a 4 KiB L1, so few ops hit and runs stay short;
//  * a one-line hammer trace, whose ops all hit its L1 and so stop only at
//    the run cap (or the quota);
//  * two identical cores, whose clocks tie until their L2 outcomes differ,
//    so the lowest-index tie rule decides the order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "plrupart/core/partitioned_cache.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "support/reference_replay.hpp"

namespace plrupart::sim {
namespace {

constexpr const char* kHammer = "hammer";

/// Every op touches one line: after the first it always hits the L1.
class HammerTrace final : public TraceSource {
 public:
  explicit HammerTrace(std::uint32_t core) : addr_((std::uint64_t{core} + 1) << 32) {}
  MemOp next() override {
    return {.addr = addr_, .write = (ops_++ & 3) == 0, .gap_instrs = 2};
  }
  [[nodiscard]] std::string name() const override { return kHammer; }

 private:
  cache::Addr addr_;
  std::uint64_t ops_ = 0;
};

struct Case {
  std::string acronym;
  std::uint32_t cores = 2;
  std::uint64_t instr = 20'000;
  std::uint64_t warmup = 0;
  bool timed = false;
  std::uint32_t k = 1;
  bool small_l1 = false;
  bool twins = false;  ///< cores 0 and 1 run the same benchmark and stream
  std::vector<std::string> benchmarks;  ///< "hammer" names a HammerTrace
  std::uint64_t seed = 1;

  [[nodiscard]] std::string describe() const {
    std::string s = acronym + " cores=" + std::to_string(cores) +
                    " instr=" + std::to_string(instr) +
                    " warmup=" + std::to_string(warmup) +
                    (timed ? " timed" : " functional") + " K=" + std::to_string(k) +
                    (small_l1 ? " l1=4KiB" : "") + (twins ? " twins" : "") +
                    " seed=" + std::to_string(seed) + " [";
    for (const auto& b : benchmarks) s += b + ' ';
    return s + ']';
  }
};

Case draw(const std::string& acronym, std::uint64_t seed) {
  std::seed_seq seq(acronym.begin(), acronym.end());
  std::mt19937_64 rng(seq);
  rng.discard(seed * 64);
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  Case c;
  c.acronym = acronym;
  c.seed = seed;
  c.cores = static_cast<std::uint32_t>(1 + below(8));
  constexpr std::uint64_t kInstr[] = {1, 7, 20'000};
  c.instr = kInstr[below(3)];
  const std::uint64_t warmups[] = {0, 3, c.instr / 2};
  c.warmup = warmups[below(3)];
  c.timed = below(2) == 0;
  c.k = static_cast<std::uint32_t>(1 + below(3));
  c.small_l1 = below(2) == 0;
  c.twins = c.cores >= 2 && below(5) < 2;
  const auto& catalog = workloads::catalog();
  for (std::uint32_t i = 0; i < c.cores; ++i) {
    c.benchmarks.push_back(c.twins && i == 1 ? c.benchmarks[0]
                                             : catalog[below(catalog.size())].name);
  }
  if (below(10) < 3) c.benchmarks.back() = kHammer;
  return c;
}

SimConfig config_for(const Case& c) {
  SimConfig cfg;
  if (c.small_l1) {
    cfg.hierarchy.l1d =
        cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  }
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
      c.acronym, c.cores,
      cache::Geometry{.size_bytes = 128 * 1024, .associativity = 16, .line_bytes = 128});
  cfg.hierarchy.l2.interval_cycles = 5'000;
  cfg.hierarchy.l2.sampling_ratio = 8;
  cfg.instr_limit = c.instr;
  cfg.warmup_instr = c.warmup;
  cfg.sim_threads = c.k;
  cfg.timing_mode = c.timed ? TimingMode::kTimed : TimingMode::kFunctional;
  for (const auto& name : c.benchmarks) {
    cfg.cores.push_back(name == kHammer ? CoreParams{} : workloads::benchmark(name).core);
  }
  return cfg;
}

std::vector<std::unique_ptr<TraceSource>> traces_for(const Case& c) {
  std::vector<std::unique_ptr<TraceSource>> traces;
  for (std::uint32_t i = 0; i < c.cores; ++i) {
    if (c.benchmarks[i] == kHammer) {
      traces.push_back(std::make_unique<HammerTrace>(i));
    } else {
      // Twins share core 0's address space too, so their L1 outcomes match.
      const std::uint32_t id = c.twins && i == 1 ? 0 : i;
      traces.push_back(
          workloads::make_trace(workloads::benchmark(c.benchmarks[i]), id, 7));
    }
  }
  return traces;
}

void expect_same_as_reference(const Case& c) {
  const std::string ctx = c.describe();
  const testing::ReferenceReplay ref =
      testing::reference_replay(config_for(c), traces_for(c));
  CmpSimulator sim(config_for(c), traces_for(c));
  const SimResult got = sim.run();
  std::vector<core::RepartitionEvent> history;
  if (const auto* ctrl = sim.hierarchy().l2().controller()) history = ctrl->history();

  const SimResult& want = ref.result;
  ASSERT_EQ(got.threads.size(), want.threads.size()) << ctx;
  for (std::size_t i = 0; i < want.threads.size(); ++i) {
    const auto& a = want.threads[i];
    const auto& b = got.threads[i];
    EXPECT_EQ(a.benchmark, b.benchmark) << ctx << " core " << i;
    EXPECT_EQ(a.instructions, b.instructions) << ctx << " core " << i;
    EXPECT_EQ(a.cycles, b.cycles) << ctx << " core " << i;
    EXPECT_EQ(a.ipc, b.ipc) << ctx << " core " << i;
    EXPECT_EQ(a.mem.l1_accesses, b.mem.l1_accesses) << ctx << " core " << i;
    EXPECT_EQ(a.mem.l1_misses, b.mem.l1_misses) << ctx << " core " << i;
    EXPECT_EQ(a.mem.l2_accesses, b.mem.l2_accesses) << ctx << " core " << i;
    EXPECT_EQ(a.mem.l2_misses, b.mem.l2_misses) << ctx << " core " << i;
  }
  EXPECT_EQ(got.wall_cycles, want.wall_cycles) << ctx;
  EXPECT_EQ(got.repartitions, want.repartitions) << ctx;
  EXPECT_EQ(got.l2_config, want.l2_config) << ctx;
  EXPECT_EQ(got.timing, want.timing) << ctx;
  ASSERT_EQ(history.size(), ref.history.size()) << ctx;
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].cycle, ref.history[i].cycle) << ctx << " interval " << i;
    EXPECT_EQ(history[i].partition, ref.history[i].partition) << ctx << " interval " << i;
  }
  const TimedStats& x = got.timed;
  const TimedStats& y = want.timed;
  EXPECT_EQ(x.dram_reads, y.dram_reads) << ctx;
  EXPECT_EQ(x.dram_writebacks, y.dram_writebacks) << ctx;
  EXPECT_EQ(x.row_hits, y.row_hits) << ctx;
  EXPECT_EQ(x.row_misses, y.row_misses) << ctx;
  EXPECT_EQ(x.bank_conflicts, y.bank_conflicts) << ctx;
  EXPECT_EQ(x.mshr_coalesced, y.mshr_coalesced) << ctx;
  EXPECT_EQ(x.mshr_full_stalls, y.mshr_full_stalls) << ctx;
  EXPECT_EQ(x.wb_full_stalls, y.wb_full_stalls) << ctx;
  EXPECT_EQ(x.dram_bytes, y.dram_bytes) << ctx;
  EXPECT_EQ(x.mshr_peak, y.mshr_peak) << ctx;
}

class ReplayOrderDiff : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayOrderDiff, GeneratedCasesMatchThePerOpLoop) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    expect_same_as_reference(draw(GetParam(), seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Acronyms, ReplayOrderDiff, ::testing::ValuesIn(core::CpaConfig::known_acronyms()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string s = param.param;
      for (char& ch : s) {
        if (ch == '-' || ch == '.') ch = '_';
      }
      return s;
    });

// Fixed corners the draw reaches only by chance.

TEST(ReplayOrderDiffCorners, HammerCoresSpinOnTheRunCap) {
  // Two hammer cores beside a real one: their clocks tie forever, every run
  // ends at the cap, and the frozen hammers keep running until mcf's quota.
  for (const bool timed : {false, true}) {
    for (const std::uint64_t warmup : {0ULL, 10'000ULL}) {
      expect_same_as_reference(Case{.acronym = "M-BT",
                                    .cores = 3,
                                    .warmup = warmup,
                                    .timed = timed,
                                    .benchmarks = {"mcf", kHammer, kHammer}});
    }
  }
}

TEST(ReplayOrderDiffCorners, IdenticalCoresTieOnTheLowestIndex) {
  for (const std::uint32_t k : {1u, 2u}) {
    for (const bool small_l1 : {false, true}) {
      expect_same_as_reference(Case{.acronym = "C-L",
                                    .cores = 4,
                                    .warmup = 10'000,
                                    .k = k,
                                    .small_l1 = small_l1,
                                    .twins = true,
                                    .benchmarks = {"twolf", "twolf", "art", "gzip"}});
    }
  }
}

}  // namespace
}  // namespace plrupart::sim
