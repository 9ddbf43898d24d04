// TimedMemory against its frozen event-queue reference
// (tests/support/reference_timed_memory.hpp): seeded random miss / hit /
// retire / drain streams drive both models, and after every call the
// tickets, fill ticks, counters and occupancy must agree.
//
// The production model orders events with per-bank completion slots and a
// same-tick completion ring instead of one generic heap. Any slip in that
// order shows up here as a different fill tick, a different FR-FCFS pick
// (row-hit counters), or a stall that frees a different slot. The streams
// cover what the order depends on:
//  * lanes (1-8) that each hold at most one ticket, as TimedClocks' cores do,
//    and a single stream holding up to 48 tickets retired in random order;
//  * issue ticks behind the model's current time (the monotone floor);
//  * zero latencies, where every event of a call lands on one tick and only
//    the same-tick FIFO order separates them;
//  * 1, 3 and 8 DRAM banks (3 takes the modulo interleave), 1, 2 and 16
//    MSHRs, writeback queues of 1 and 8, and a 24-line working set on a
//    4-set cache, so coalescing, row hits and full-queue stalls all occur.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/sim/timed_memory.hpp"
#include "support/reference_timed_memory.hpp"

namespace plrupart::sim {
namespace {

using testing::ReferenceTimedMemory;

/// xorshift64: a fixed, platform-independent stream for the generators.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  std::uint64_t next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool chance(std::uint64_t percent) { return below(100) < percent; }

 private:
  std::uint64_t s_;
};

struct Case {
  std::uint32_t banks = 8;
  std::uint32_t mshrs = 16;
  std::uint32_t wb_queue = 8;
  bool zero_latency = false;
  std::uint32_t lanes = 0;  ///< 0 = one stream holding many tickets
  std::uint64_t seed = 1;

  [[nodiscard]] std::string describe() const {
    return "banks=" + std::to_string(banks) + " mshrs=" + std::to_string(mshrs) +
           " wbq=" + std::to_string(wb_queue) + (zero_latency ? " zero-latency" : "") +
           (lanes == 0 ? " many-tickets" : " lanes=" + std::to_string(lanes)) +
           " seed=" + std::to_string(seed);
  }
};

struct Held {
  TimedMemory::Ticket dut;
  ReferenceTimedMemory::Ticket ref;
};

/// Drives both models call for call and compares after each one.
class Pair {
 public:
  explicit Pair(const Case& c) : dut_(params(c), geo()), ref_(params(c), geo()) {}

  static cache::Geometry geo() {
    return cache::Geometry{.size_bytes = 2048, .associativity = 4, .line_bytes = 128};
  }

  static TimedParams params(const Case& c) {
    TimedParams p;
    p.dram_banks = c.banks;
    p.mshrs = c.mshrs;
    p.writeback_queue = c.wb_queue;
    // 3 banks x 3 lines per row takes the modulo interleave; 1 and 8 banks
    // with 2 lines per row take the mask-and-shift one.
    p.row_bytes = c.banks == 3 ? 384 : 256;
    if (c.zero_latency) {
      p.l2_miss_to_dram_cycles = 0;
      p.t_row_hit = 0;
      p.t_row_miss = 0;
      p.t_row_conflict = 0;
    }
    return p;
  }

  Held miss(std::uint64_t t, cache::Addr line, std::uint32_t way, bool write,
            bool evicted_valid, cache::Addr evicted_line) {
    const Held h{dut_.miss(t, line, way, write, evicted_valid, evicted_line),
                 ref_.miss(t, line, way, write, evicted_valid, evicted_line)};
    EXPECT_EQ(h.dut.valid, h.ref.valid);
    check();
    return h;
  }

  Held hit(std::uint64_t t, cache::Addr line, std::uint32_t way, bool write) {
    const Held h{dut_.hit(t, line, way, write), ref_.hit(t, line, way, write)};
    EXPECT_EQ(h.dut.valid, h.ref.valid);
    check();
    return h;
  }

  std::uint64_t retire(const Held& h) {
    const std::uint64_t done = dut_.retire(h.dut);
    EXPECT_EQ(done, ref_.retire(h.ref));
    check();
    return done;
  }

  void drain() {
    dut_.drain();
    ref_.drain();
    check();
    EXPECT_EQ(dut_.mshrs_pending(), 0u);
    EXPECT_EQ(dut_.writebacks_in_flight(), 0u);
  }

  void mark() {
    dut_.mark();
    ref_.mark();
    check();
  }

  [[nodiscard]] const TimedStats& stats() const { return dut_.stats(); }

 private:
  void check() const {
    EXPECT_EQ(dut_.mshrs_pending(), ref_.mshrs_pending());
    EXPECT_EQ(dut_.writebacks_in_flight(), ref_.writebacks_in_flight());
    const TimedStats& a = dut_.stats();
    const TimedStats& b = ref_.stats();
    EXPECT_EQ(a.dram_reads, b.dram_reads);
    EXPECT_EQ(a.dram_writebacks, b.dram_writebacks);
    EXPECT_EQ(a.row_hits, b.row_hits);
    EXPECT_EQ(a.row_misses, b.row_misses);
    EXPECT_EQ(a.bank_conflicts, b.bank_conflicts);
    EXPECT_EQ(a.mshr_coalesced, b.mshr_coalesced);
    EXPECT_EQ(a.mshr_full_stalls, b.mshr_full_stalls);
    EXPECT_EQ(a.wb_full_stalls, b.wb_full_stalls);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_EQ(a.mshr_peak, b.mshr_peak);
  }

  TimedMemory dut_;
  ReferenceTimedMemory ref_;
};

constexpr int kOps = 3000;
constexpr cache::Addr kLines = 24;

/// One L2 access at tick `t`: 70% misses, each evicting a random line from
/// the working set (or nothing) with a 40% write rate, else a hit.
Held access(Pair& pair, Rng& rng, std::uint64_t t) {
  const cache::Addr line = rng.below(kLines);
  const auto way = static_cast<std::uint32_t>(rng.below(Pair::geo().associativity));
  const bool write = rng.chance(40);
  if (rng.chance(70))
    return pair.miss(t, line, way, write, rng.chance(80), rng.below(kLines));
  return pair.hit(t, line, way, write);
}

/// The gap to a lane's next access: mostly short, so lanes contend, with
/// zero gaps that put many calls on one tick.
std::uint64_t gap(Rng& rng) { return rng.chance(20) ? 0 : rng.below(80); }

/// Lanes issue in round-robin-with-jitter order, each retiring its ticket
/// before its next access and waiting out the fill like a stalled core.
void run_lanes(const Case& c) {
  SCOPED_TRACE(c.describe());
  Pair pair(c);
  Rng rng(c.seed);
  std::vector<std::uint64_t> clock(c.lanes, 0);
  std::vector<Held> held(c.lanes);
  for (int op = 0; op < kOps && !::testing::Test::HasFailure(); ++op) {
    const auto lane = static_cast<std::uint32_t>(rng.below(c.lanes));
    clock[lane] += gap(rng);
    if (held[lane].dut.valid) {
      const std::uint64_t done = pair.retire(held[lane]);
      held[lane] = Held{};
      if (rng.chance(60) && done > clock[lane]) clock[lane] = done;
    }
    held[lane] = access(pair, rng, clock[lane]);
    if (rng.chance(1)) pair.mark();
  }
  for (auto& h : held)
    if (h.dut.valid) (void)pair.retire(h);
  pair.drain();
}

/// One stream keeps up to 48 tickets in flight and retires them in random
/// order; a fifth of its issues land behind the model's current time.
void run_many_tickets(const Case& c) {
  SCOPED_TRACE(c.describe());
  Pair pair(c);
  Rng rng(c.seed);
  std::vector<Held> held;
  std::uint64_t t = 0;
  for (int op = 0; op < kOps && !::testing::Test::HasFailure(); ++op) {
    if (!held.empty() && (held.size() >= 48 || rng.chance(40))) {
      const std::size_t i = rng.below(held.size());
      (void)pair.retire(held[i]);
      held[i] = held.back();
      held.pop_back();
    } else {
      t += gap(rng);
      const std::uint64_t back = rng.chance(20) ? rng.below(300) : 0;
      const Held h = access(pair, rng, t > back ? t - back : 0);
      if (h.dut.valid) held.push_back(h);
    }
    if (rng.chance(1)) pair.drain();
    if (rng.chance(1)) pair.mark();
  }
  for (const auto& h : held) (void)pair.retire(h);
  pair.drain();
}

std::vector<Case> grid(bool zero_latency, bool lanes) {
  std::vector<Case> cases;
  std::uint64_t seed = zero_latency ? 1000 : 1;
  for (const std::uint32_t banks : {1u, 3u, 8u})
    for (const std::uint32_t mshrs : {1u, 2u, 16u})
      for (const std::uint32_t wbq : {1u, 8u}) {
        Case c;
        c.banks = banks;
        c.mshrs = mshrs;
        c.wb_queue = wbq;
        c.zero_latency = zero_latency;
        c.seed = seed++;
        c.lanes = lanes ? static_cast<std::uint32_t>(1 + c.seed % 8) : 0;
        cases.push_back(c);
      }
  return cases;
}

TEST(TimedMemoryDiff, LanesHoldingOneTicketEach) {
  for (const Case& c : grid(false, true)) run_lanes(c);
}

TEST(TimedMemoryDiff, ZeroLatencyLanes) {
  for (const Case& c : grid(true, true)) run_lanes(c);
}

TEST(TimedMemoryDiff, ManyTicketsRetiredOutOfOrder) {
  for (const Case& c : grid(false, false)) run_many_tickets(c);
}

TEST(TimedMemoryDiff, ZeroLatencyManyTickets) {
  for (const Case& c : grid(true, false)) run_many_tickets(c);
}

TEST(TimedMemoryDiff, StreamsReachEveryCounter) {
  // The generators are only useful if they drive the paths the order
  // matters for: a default-shaped case must coalesce, stall on both queues,
  // write back, and see every row-buffer outcome.
  Case c;
  c.mshrs = 2;
  c.wb_queue = 1;
  c.banks = 3;
  c.lanes = 4;
  Pair pair(c);
  Rng rng(c.seed);
  std::vector<Held> held;
  std::uint64_t t = 0;
  for (int op = 0; op < kOps; ++op) {
    t += gap(rng);
    const Held h = access(pair, rng, t);
    if (h.dut.valid) held.push_back(h);
    if (held.size() >= 8) {
      for (const auto& x : held) (void)pair.retire(x);
      held.clear();
    }
  }
  for (const auto& x : held) (void)pair.retire(x);
  pair.drain();
  const TimedStats& s = pair.stats();
  EXPECT_GT(s.mshr_coalesced, 0u);
  EXPECT_GT(s.mshr_full_stalls, 0u);
  EXPECT_GT(s.wb_full_stalls, 0u);
  EXPECT_GT(s.dram_writebacks, 0u);
  EXPECT_GT(s.row_hits, 0u);
  EXPECT_GT(s.row_misses, 0u);
  EXPECT_GT(s.bank_conflicts, 0u);
}

}  // namespace
}  // namespace plrupart::sim
