// Timed simulation mode: the decision-match gate and the MSHR/writeback/DRAM
// edge cases.
//
// The load-bearing contract of the timed overlay is that it changes cycle
// accounting and NOTHING else: the L2 sees the exact same access stream as
// the functional replay, so the interval controller takes identical partition
// decisions at identical tick positions in both modes, for every
// configuration and workload. DecisionMatchGate pins that — the CI `timed`
// job runs this suite as the gate.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "common/parallel.hpp"
#include "plrupart/common/assert.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/sim/timed_memory.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/workload_table.hpp"

namespace plrupart::sim {
namespace {

using workloads::benchmark;
using workloads::make_trace;

SimConfig small_config(const std::vector<std::string>& names, const char* acronym,
                       TimingMode mode, std::uint64_t instr = 30'000,
                       std::uint64_t warmup = 8'000, std::uint64_t l2_kb = 256) {
  SimConfig cfg;
  cfg.hierarchy.l1d =
      cache::Geometry{.size_bytes = 4096, .associativity = 2, .line_bytes = 128};
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(
      acronym, static_cast<std::uint32_t>(names.size()),
      cache::Geometry{.size_bytes = l2_kb * 1024, .associativity = 16, .line_bytes = 128});
  cfg.hierarchy.l2.interval_cycles = 25'000;
  cfg.hierarchy.l2.sampling_ratio = 8;
  cfg.instr_limit = instr;
  cfg.warmup_instr = warmup;
  cfg.timing_mode = mode;
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

/// Run one config in `mode` and return (result, controller history).
std::pair<SimResult, std::vector<core::RepartitionEvent>> run_with_history(
    const std::vector<std::string>& names, const char* acronym, TimingMode mode,
    const SimConfig* override_cfg = nullptr) {
  SimConfig cfg = override_cfg ? *override_cfg : small_config(names, acronym, mode);
  CmpSimulator sim(std::move(cfg), traces_for(names));
  SimResult result = sim.run();
  const auto* ctrl = sim.hierarchy().l2().controller();
  std::vector<core::RepartitionEvent> history;
  if (ctrl != nullptr) history = ctrl->history();
  return {std::move(result), std::move(history)};
}

/// The gate: every repartition decision — position AND chosen allocation —
/// must be identical between the modes, and so must every functional-side
/// counter (same stream ⇒ same hit/miss record).
void expect_decisions_match(const std::vector<std::string>& names, const char* acronym) {
  const auto [functional, fh] =
      run_with_history(names, acronym, TimingMode::kFunctional);
  const auto [timed, th] = run_with_history(names, acronym, TimingMode::kTimed);
  const std::string ctx = std::string(acronym) + " (" + names[0] + "+...)";

  ASSERT_EQ(fh.size(), th.size()) << ctx << ": repartition count diverged";
  for (std::size_t i = 0; i < fh.size(); ++i) {
    EXPECT_EQ(fh[i].cycle, th[i].cycle) << ctx << ": decision " << i << " tick";
    EXPECT_EQ(fh[i].partition, th[i].partition)
        << ctx << ": decision " << i << " allocation";
  }
  EXPECT_EQ(functional.repartitions, timed.repartitions) << ctx;

  ASSERT_EQ(functional.threads.size(), timed.threads.size()) << ctx;
  for (std::size_t i = 0; i < functional.threads.size(); ++i) {
    const auto& f = functional.threads[i];
    const auto& t = timed.threads[i];
    EXPECT_EQ(f.instructions, t.instructions) << ctx << " core " << i;
    EXPECT_EQ(f.mem.l1_accesses, t.mem.l1_accesses) << ctx << " core " << i;
    EXPECT_EQ(f.mem.l1_misses, t.mem.l1_misses) << ctx << " core " << i;
    EXPECT_EQ(f.mem.l2_accesses, t.mem.l2_accesses) << ctx << " core " << i;
    EXPECT_EQ(f.mem.l2_misses, t.mem.l2_misses) << ctx << " core " << i;
  }
  EXPECT_EQ(timed.timing, TimingMode::kTimed) << ctx;
  EXPECT_EQ(timed.sim_shards, 1u) << ctx;
}

TEST(TimedSim, DecisionMatchGateAllConfigsTwoWorkloads) {
  // Every acronym the project knows — partitioned (decision histories compared
  // entry by entry) and unpartitioned (histories empty in both modes, counters
  // still compared) — across two distinct workloads.
  const std::vector<std::vector<std::string>> mixes{{"twolf", "art"}, {"mcf", "gzip"}};
  for (const auto& names : mixes) {
    for (const auto& acronym : core::CpaConfig::known_acronyms()) {
      expect_decisions_match(names, acronym.c_str());
    }
  }
}

TEST(TimedSim, DecisionMatchFourCores) {
  expect_decisions_match({"twolf", "art", "mcf", "gzip"}, "M-BT");
}

TEST(TimedSim, ZeroLatencyDegenerateStillMatchesFunctionalDecisions) {
  // All latencies zero: every fill completes on its issue tick. The overlay
  // charges nothing, yet the decision stream must STILL be identical — the
  // gate is about stream identity, not about latency magnitude.
  const std::vector<std::string> names{"twolf", "art"};
  SimConfig zero = small_config(names, "M-0.75N", TimingMode::kTimed);
  zero.timed.l2_hit_cycles = 0;
  zero.timed.l2_miss_to_dram_cycles = 0;
  zero.timed.t_row_hit = 0;
  zero.timed.t_row_miss = 0;
  zero.timed.t_row_conflict = 0;

  const auto [functional, fh] =
      run_with_history(names, "M-0.75N", TimingMode::kFunctional);
  const auto [timed, th] =
      run_with_history(names, "M-0.75N", TimingMode::kTimed, &zero);
  ASSERT_EQ(fh.size(), th.size());
  for (std::size_t i = 0; i < fh.size(); ++i) {
    EXPECT_EQ(fh[i].cycle, th[i].cycle);
    EXPECT_EQ(fh[i].partition, th[i].partition);
  }
  for (std::size_t i = 0; i < functional.threads.size(); ++i) {
    EXPECT_EQ(functional.threads[i].mem.l2_misses, timed.threads[i].mem.l2_misses);
  }
  // With zero memory latency a thread can only be FASTER than functional mode
  // (which still charges its fixed penalties).
  for (std::size_t i = 0; i < timed.threads.size(); ++i) {
    EXPECT_LE(timed.threads[i].cycles, functional.threads[i].cycles);
  }
}

TEST(TimedSim, TimedPipelinedRunsMatchSerialTimed) {
  // The timed overlay only reads the replay's access stream, so timed runs
  // take the front-end pipeline too, byte-identical to serial timed.
  const std::vector<std::string> names{"twolf", "art", "mcf"};
  CmpSimulator serial(small_config(names, "M-BT", TimingMode::kTimed), traces_for(names));
  const SimResult ra = serial.run();
  for (const std::uint32_t k : {2u, 3u}) {
    SimConfig cfg = small_config(names, "M-BT", TimingMode::kTimed);
    cfg.sim_threads = k;
    CmpSimulator piped(std::move(cfg), traces_for(names));
    const SimResult rb = piped.run();
    EXPECT_EQ(rb.sim_shards, k);
    ASSERT_EQ(ra.threads.size(), rb.threads.size());
    for (std::size_t i = 0; i < ra.threads.size(); ++i) {
      EXPECT_EQ(ra.threads[i].cycles, rb.threads[i].cycles) << "core " << i << " @" << k;
      EXPECT_EQ(ra.threads[i].ipc, rb.threads[i].ipc) << "core " << i << " @" << k;
      EXPECT_EQ(ra.threads[i].mem.l2_misses, rb.threads[i].mem.l2_misses) << "@" << k;
    }
    EXPECT_EQ(ra.wall_cycles, rb.wall_cycles) << "@" << k;
    EXPECT_EQ(ra.repartitions, rb.repartitions) << "@" << k;
    EXPECT_EQ(ra.timed.dram_reads, rb.timed.dram_reads) << "@" << k;
    EXPECT_EQ(ra.timed.dram_writebacks, rb.timed.dram_writebacks) << "@" << k;
    EXPECT_EQ(ra.timed.dram_bytes, rb.timed.dram_bytes) << "@" << k;
    EXPECT_EQ(ra.timed.row_hits, rb.timed.row_hits) << "@" << k;
    EXPECT_EQ(ra.timed.bank_conflicts, rb.timed.bank_conflicts) << "@" << k;
    EXPECT_EQ(ra.timed.mshr_coalesced, rb.timed.mshr_coalesced) << "@" << k;
    EXPECT_EQ(ra.timed.mshr_peak, rb.timed.mshr_peak) << "@" << k;
  }
}

TEST(TimedSim, TimedCountersAreCoherent) {
  const std::vector<std::string> names{"mcf", "art"};
  SimConfig cfg = small_config(names, "M-L", TimingMode::kTimed);
  CmpSimulator sim(std::move(cfg), traces_for(names));
  const SimResult r = sim.run();
  EXPECT_EQ(r.timing, TimingMode::kTimed);
  EXPECT_GT(r.timed.dram_reads, 0u);
  EXPECT_GT(r.timed.dram_bytes, 0u);
  EXPECT_GE(r.timed.mshr_peak, 1u);
  EXPECT_LE(r.timed.mshr_peak, SimConfig{}.timed.mshrs);
  // Every DRAM service resolves to exactly one row-buffer outcome.
  EXPECT_GT(r.timed.row_hits + r.timed.row_misses + r.timed.bank_conflicts, 0u);
  EXPECT_GT(r.wall_cycles, 0.0);
}

// ---------------------------------------------------------------------------
// TimedDigest: timed results pinned to the bit. Every acronym x {2T_01, 4T_10}
// x L2 {256, 2048} KB is folded into one FNV-1a digest per run, over each
// thread's cycles and ipc bits and every TimedStats field. A change to the
// overlay's event order or arithmetic moves a digest; a pure refactor of
// TimedMemory must leave all of them alone.
// ---------------------------------------------------------------------------

std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
  char buf[8];
  for (int b = 0; b < 8; ++b) buf[b] = static_cast<char>(v >> (8 * b));
  return fnv1a64(std::string_view(buf, sizeof buf), h);
}

std::uint64_t timed_digest(const SimResult& r) {
  std::uint64_t h = kFnv1a64Init;
  for (const auto& th : r.threads) {
    h = fold_u64(h, std::bit_cast<std::uint64_t>(th.cycles));
    h = fold_u64(h, std::bit_cast<std::uint64_t>(th.ipc));
  }
  const TimedStats& s = r.timed;
  for (const std::uint64_t v :
       {s.dram_reads, s.dram_writebacks, s.row_hits, s.row_misses, s.bank_conflicts,
        s.mshr_coalesced, s.mshr_full_stalls, s.wb_full_stalls, s.dram_bytes,
        std::uint64_t{s.mshr_peak}})
    h = fold_u64(h, v);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::string> workload_names(const std::string& workload_id) {
  for (const auto& w : workloads::all_workloads())
    if (w.id == workload_id) return w.benchmarks;
  return {};
}

/// `expected` holds one digest per acronym, in known_acronyms() order.
void expect_timed_digests(const std::string& workload_id, std::uint64_t l2_kb,
                          const std::vector<std::uint64_t>& expected) {
  const std::vector<std::string> names = workload_names(workload_id);
  ASSERT_FALSE(names.empty()) << workload_id;
  const auto& acronyms = core::CpaConfig::known_acronyms();
  ASSERT_EQ(acronyms.size(), expected.size());
  for (std::size_t i = 0; i < acronyms.size(); ++i) {
    CmpSimulator sim(small_config(names, acronyms[i].c_str(), TimingMode::kTimed, 60'000,
                                  15'000, l2_kb),
                     traces_for(names));
    const std::uint64_t got = timed_digest(sim.run());
    EXPECT_EQ(hex(got), hex(expected[i]))
        << workload_id << " " << acronyms[i] << " @ " << l2_kb << " KB";
  }
}

TEST(TimedDigest, TwoThreads256KB) {
  expect_timed_digests("2T_01", 256, {
      0x52c31721e8e0ec8cULL, 0x626084d7b16af442ULL, 0x6f2b1b3a8f088f93ULL,
      0xc54ec8eb7f8e36d6ULL, 0x73a58fe419ee3f38ULL, 0x96b856f3b2878acbULL,
      0x1000732965cb03ecULL, 0xa9b783ee467be7e2ULL, 0xd350706df8845947ULL,
      0x3c9ca5ceda221625ULL, 0x3bf3b7f66584f0eeULL, 0x0b6955ba8eb28eb4ULL});
}

TEST(TimedDigest, TwoThreads2048KB) {
  expect_timed_digests("2T_01", 2048, {
      0x4795a6e58133d335ULL, 0x4795a6e58133d335ULL, 0x4795a6e58133d335ULL,
      0x4795a6e58133d335ULL, 0x4795a6e58133d335ULL, 0x4795a6e58133d335ULL,
      0xe30448af410e6d07ULL, 0x4795a6e58133d335ULL, 0x4795a6e58133d335ULL,
      0x4795a6e58133d335ULL, 0x4795a6e58133d335ULL, 0x4795a6e58133d335ULL});
}

TEST(TimedDigest, FourThreads256KB) {
  expect_timed_digests("4T_10", 256, {
      0x31e18cf871313659ULL, 0xffa9c843baecc681ULL, 0xb08f520d6e24679bULL,
      0xd61e362d7cde630dULL, 0xb4ce107f2998b516ULL, 0x8ba7bf18b6b63a68ULL,
      0x5a5fd9e9193f8ae8ULL, 0x12131c7966c2648aULL, 0x1e3d4fa9704fd9b1ULL,
      0x676e426392c19ddcULL, 0x6c8780284de2c909ULL, 0xf45fc5d565183630ULL});
}

TEST(TimedDigest, FourThreads2048KB) {
  expect_timed_digests("4T_10", 2048, {
      0xca2bf62bd8e9ba86ULL, 0xe2406aa265caad67ULL, 0x025ff68867a9e902ULL,
      0x9a2de7eb08baf592ULL, 0xe075a4b1173035a1ULL, 0xab6c58aaecfad9a6ULL,
      0x39970b2498d42660ULL, 0xfaf41a468bcab9b8ULL, 0x847d375b7152fe75ULL,
      0xecb989af1c5640efULL, 0xc1e1ae34c284a9b2ULL, 0xbec86e2ccbfe17e4ULL});
}

// A core settles its one demand transaction before it issues the next, so a
// run never has more misses pending than it has cores: an MSHR file at least
// that large never fills, and shrinking the default 16 to the core count
// changes no cycle and no counter.
TEST(TimedSim, PendingMshrsNeverExceedTheCoreCount) {
  for (const char* id : {"4T_10", "8T_02"}) {
    const std::vector<std::string> names = workload_names(id);
    ASSERT_FALSE(names.empty()) << id;
    const auto cores = static_cast<std::uint32_t>(names.size());
    for (const char* acronym : {"M-0.75N", "C-L", "M-BT"}) {
      const SimConfig cfg = small_config(names, acronym, TimingMode::kTimed);
      SimConfig tight = cfg;
      tight.timed.mshrs = cores;
      const SimResult r = CmpSimulator(cfg, traces_for(names)).run();
      const SimResult t = CmpSimulator(tight, traces_for(names)).run();
      const std::string ctx = std::string(id) + " " + acronym;
      EXPECT_GE(r.timed.mshr_peak, 1U) << ctx;
      EXPECT_LE(r.timed.mshr_peak, cores) << ctx;
      EXPECT_EQ(r.timed.mshr_full_stalls, 0U) << ctx;
      EXPECT_EQ(t.timed.mshr_full_stalls, 0U) << ctx;
      EXPECT_EQ(hex(timed_digest(t)), hex(timed_digest(r))) << ctx;
    }
  }
}

// A long timed job applies its overlay on a helper thread when the process
// has a hardware thread to spare, and on the replay thread when it does not.
// Both must give the same bits. Reserving every hardware thread forces the
// direct path; with nothing reserved, a sim_threads 1 job takes the helper on
// any host with two or more hardware threads (sim_threads 3 takes it only
// where the producers leave one free).
TEST(TimedSim, HelperAndDirectOverlaysAgree) {
  for (const char* id : {"4T_10", "8T_02"}) {
    const std::vector<std::string> names = workload_names(id);
    ASSERT_FALSE(names.empty()) << id;
    for (const char* acronym : {"M-0.75N", "C-L", "M-BT"}) {
      for (const std::uint32_t k : {1U, 3U}) {
        SimConfig cfg = small_config(names, acronym, TimingMode::kTimed);
        cfg.sim_threads = k;
        const SimResult helper = CmpSimulator(cfg, traces_for(names)).run();
        const SimResult direct = [&] {
          const BusyThreads every_thread(default_parallelism());
          return CmpSimulator(cfg, traces_for(names)).run();
        }();
        const std::string ctx = std::string(id) + " " + acronym + " K=" + std::to_string(k);
        ASSERT_EQ(helper.threads.size(), direct.threads.size()) << ctx;
        for (std::size_t i = 0; i < helper.threads.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(helper.threads[i].cycles),
                    std::bit_cast<std::uint64_t>(direct.threads[i].cycles))
              << ctx << " core " << i;
        }
        // The digest folds every thread's cycles and ipc bits and every
        // TimedStats field.
        EXPECT_EQ(hex(timed_digest(helper)), hex(timed_digest(direct))) << ctx;
      }
    }
  }
}

// A v2 trace cut inside its last record fails the run at that record. The
// cut lies thousands of records past the overlay ring's first fill, so a
// timed run fails with its helper thread running: the error must be the
// functional run's, text and offset, and the run must return (helper joined)
// rather than hang or terminate.
TEST(TimedSim, TruncatedTraceFailsAsInFunctionalModeWithTheHelperRunning) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("plrupart_timed_trunc_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "cut.v2.trace").string();
  {
    const auto source = make_trace(benchmark("mcf"), 0, 7);
    write_trace_file(path, record_trace(*source, 20'000), TraceFormat::kBinaryV2);
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);

  const std::vector<std::string> names{"mcf", "mcf"};
  const auto error_of = [&](TimingMode mode, std::uint32_t k) -> std::string {
    SimConfig cfg = small_config(names, "M-BT", mode, 10'000'000, 0);
    cfg.sim_threads = k;
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (int c = 0; c < 2; ++c) traces.push_back(std::make_unique<FileTraceSource>(path));
    try {
      (void)CmpSimulator(std::move(cfg), std::move(traces)).run();
    } catch (const TraceError& e) {
      return e.what();
    }
    return "no TraceError";
  };
  const std::string functional = error_of(TimingMode::kFunctional, 1);
  const std::string timed_serial = error_of(TimingMode::kTimed, 1);
  const std::string timed_piped = error_of(TimingMode::kTimed, 3);
  std::filesystem::remove_all(dir);
  EXPECT_NE(functional.find("truncated record at byte"), std::string::npos) << functional;
  EXPECT_EQ(timed_serial, functional);
  EXPECT_EQ(timed_piped, functional);
}

// ---------------------------------------------------------------------------
// TimedMemory unit tests: MSHR-full stall, coalescing, writeback backpressure.
// A tiny one-set geometry (512 B, 4-way, 128 B lines) makes dirty-victim
// bookkeeping trivially addressable: every line maps to set 0.
// ---------------------------------------------------------------------------

cache::Geometry one_set_geo() {
  return cache::Geometry{.size_bytes = 512, .associativity = 4, .line_bytes = 128};
}

TEST(TimedMemory, MshrFullStallBlocksUntilAFillFrees) {
  TimedParams p;
  p.mshrs = 2;
  TimedMemory mem(p, one_set_geo());

  const auto t1 = mem.miss(0, 0x100, 0, false, false, 0);
  const auto t2 = mem.miss(0, 0x200, 1, false, false, 0);
  ASSERT_TRUE(t1.valid && t2.valid);
  EXPECT_EQ(mem.mshrs_pending(), 2u);
  EXPECT_EQ(mem.stats().mshr_full_stalls, 0u);

  // Third distinct-line miss at the same tick: the file is full, so the issue
  // must stall until one of the in-flight fills completes.
  const auto t3 = mem.miss(0, 0x300, 2, false, false, 0);
  ASSERT_TRUE(t3.valid);
  EXPECT_EQ(mem.stats().mshr_full_stalls, 1u);
  EXPECT_LE(mem.mshrs_pending(), 2u);
  EXPECT_EQ(mem.stats().mshr_peak, 2u);

  (void)mem.retire(t1);
  (void)mem.retire(t2);
  const std::uint64_t done3 = mem.retire(t3);
  EXPECT_GT(done3, 0u);
  EXPECT_EQ(mem.mshrs_pending(), 0u);
  EXPECT_EQ(mem.stats().dram_reads, 3u);
}

TEST(TimedMemory, SameLineMissCoalescesIntoThePendingFill) {
  TimedMemory mem(TimedParams{}, one_set_geo());
  const auto a = mem.miss(0, 0x100, 0, false, false, 0);
  // The functional cache evicted and re-missed the same line inside the fill
  // window (or another core missed it): one DRAM read, two waiters.
  const auto b = mem.miss(1, 0x100, 0, false, false, 0);
  ASSERT_TRUE(a.valid && b.valid);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(mem.stats().mshr_coalesced, 1u);
  EXPECT_EQ(mem.stats().dram_reads, 1u);
  EXPECT_EQ(mem.mshrs_pending(), 1u);

  const std::uint64_t done_a = mem.retire(a);
  const std::uint64_t done_b = mem.retire(b);
  EXPECT_EQ(done_a, done_b);  // both waiters see the same fill
}

TEST(TimedMemory, HitOnLineWithFillInFlightReturnsTheFillTicket) {
  TimedMemory mem(TimedParams{}, one_set_geo());
  const auto fill = mem.miss(0, 0x100, 0, false, false, 0);
  // Functionally this is an L2 hit (the line installed instantly), but the
  // timed fill has not arrived: the "hit" must wait on the MSHR.
  const auto hit = mem.hit(1, 0x100, 0, false);
  ASSERT_TRUE(hit.valid);
  EXPECT_EQ(hit.slot, fill.slot);
  EXPECT_EQ(mem.stats().mshr_coalesced, 1u);
  (void)mem.retire(fill);
  (void)mem.retire(hit);

  // After the fill lands, hits on the line are plain hits: invalid ticket.
  const auto late = mem.hit(100'000, 0x100, 0, false);
  EXPECT_FALSE(late.valid);
}

TEST(TimedMemory, DirtyVictimWritebackAndQueueBackpressure) {
  TimedParams p;
  p.writeback_queue = 1;
  TimedMemory mem(p, one_set_geo());

  // Dirty two ways of set 0 with write misses, waiting each fill out.
  auto w0 = mem.miss(0, 0x100, 0, true, false, 0);
  auto w1 = mem.miss(0, 0x200, 1, true, false, 0);
  (void)mem.retire(w0);
  (void)mem.retire(w1);
  EXPECT_EQ(mem.stats().dram_writebacks, 0u);

  // Evicting the dirty line in way 0 enqueues a writeback.
  const std::uint64_t t = 10'000;
  auto e0 = mem.miss(t, 0x300, 0, false, true, 0x100);
  EXPECT_EQ(mem.stats().dram_writebacks, 1u);
  EXPECT_EQ(mem.writebacks_in_flight(), 1u);

  // Evicting the second dirty line immediately after: the 1-deep writeback
  // queue is still occupied, so the miss must stall until it drains.
  auto e1 = mem.miss(t + 1, 0x400, 1, false, true, 0x200);
  EXPECT_EQ(mem.stats().wb_full_stalls, 1u);
  EXPECT_EQ(mem.stats().dram_writebacks, 2u);

  (void)mem.retire(e0);
  (void)mem.retire(e1);
  mem.drain();
  EXPECT_EQ(mem.writebacks_in_flight(), 0u);
  // A clean victim (way 2 was never written) produces no writeback.
  auto e2 = mem.miss(50'000, 0x500, 2, false, true, 0x180);
  (void)mem.retire(e2);
  EXPECT_EQ(mem.stats().dram_writebacks, 2u);
}

TEST(TimedMemory, ZeroLatencyFillsCompleteOnTheIssueTick) {
  TimedParams p;
  p.l2_miss_to_dram_cycles = 0;
  p.t_row_hit = 0;
  p.t_row_miss = 0;
  p.t_row_conflict = 0;
  TimedMemory mem(p, one_set_geo());
  const auto tk = mem.miss(42, 0x100, 0, false, false, 0);
  EXPECT_EQ(mem.retire(tk), 42u);
}

TEST(TimedMemory, IssueBehindTheFloorIsServedFromTheFloor) {
  // Time never runs backwards: once a retire has advanced the model to the
  // fill at 190, a miss issued at tick 5 is served from 190 (a row hit on
  // the still-open row: 190 + 30 + 100), not from 5 (5 + 30 + 100 = 135).
  TimedMemory mem(TimedParams{}, one_set_geo());
  const auto a = mem.miss(0, 0, 0, false, false, 0);
  EXPECT_EQ(mem.retire(a), 190u);  // 30 to the controller + 160 cold bank
  const auto c = mem.miss(5, 8, 1, false, false, 0);  // bank 0, row 0 again
  EXPECT_EQ(mem.retire(c), 320u);
  EXPECT_EQ(mem.stats().row_hits, 1u);
}

TEST(TimedMemory, RowBufferOutcomesFollowTheOpenRow) {
  TimedParams p;
  p.dram_banks = 1;
  p.row_bytes = 256;  // 2 lines per row
  TimedMemory mem(p, one_set_geo());

  // Lines 0 and 1 share row 0; line 2 lives in row 1 (single bank).
  auto a = mem.miss(0, 0, 0, false, false, 0);
  (void)mem.retire(a);
  EXPECT_EQ(mem.stats().row_misses, 1u);  // cold bank
  auto b = mem.miss(1'000, 1, 1, false, false, 0);
  (void)mem.retire(b);
  EXPECT_EQ(mem.stats().row_hits, 1u);  // same row still open
  auto c = mem.miss(2'000, 2, 2, false, false, 0);
  (void)mem.retire(c);
  EXPECT_EQ(mem.stats().bank_conflicts, 1u);  // different row: precharge first
}

TEST(TimedMemory, NonPowerOfTwoInterleaveDividesExactly) {
  TimedParams p;
  p.dram_banks = 3;
  p.row_bytes = 384;  // 3 lines per row
  TimedMemory mem(p, one_set_geo());

  // bank = line % 3, row = line / 3 / 3: lines 0 and 3 share bank 0 row 0,
  // line 9 is bank 0 row 1, line 1 opens bank 1.
  std::uint64_t t = 0;
  for (const cache::Addr line : {0ULL, 3ULL, 9ULL, 1ULL}) {
    auto tk = mem.miss(t += 1'000, line, 0, false, false, 0);
    (void)mem.retire(tk);
  }
  EXPECT_EQ(mem.stats().row_misses, 2u);
  EXPECT_EQ(mem.stats().row_hits, 1u);
  EXPECT_EQ(mem.stats().bank_conflicts, 1u);
}

TEST(TimedMemory, ValidateRejectsDegenerateParams) {
  TimedParams p;
  p.mshrs = 0;
  EXPECT_THROW(p.validate(), InvariantError);
  p = TimedParams{};
  p.dram_banks = 0;
  EXPECT_THROW(p.validate(), InvariantError);
  p = TimedParams{};
  p.writeback_queue = 0;
  EXPECT_THROW(p.validate(), InvariantError);
}

TEST(TimedMemory, TimingModeStringsRoundTrip) {
  EXPECT_EQ(to_string(TimingMode::kFunctional), "functional");
  EXPECT_EQ(to_string(TimingMode::kTimed), "timed");
  EXPECT_EQ(timing_mode_from_string("functional"), TimingMode::kFunctional);
  EXPECT_EQ(timing_mode_from_string("timed"), TimingMode::kTimed);
  EXPECT_THROW((void)timing_mode_from_string("cycle-accurate"), InvariantError);
}

}  // namespace
}  // namespace plrupart::sim
