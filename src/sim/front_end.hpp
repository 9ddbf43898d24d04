// The per-core front-end pipeline of CmpSimulator: `--sim-threads K` with
// K >= 2, or the CLI's default `--sim-threads 0` when at least two threads are
// free (see BusyThreads in common/parallel.hpp).
//
// A private L1D is a pure per-core filter: MemoryHierarchy runs it before the
// shared L2 and nothing back-invalidates it, so each core's L1 outcomes depend
// only on that core's own address sequence. K producer threads therefore run
// the front end — TraceSource::next() plus the core's L1 — ahead of the
// replay, producer p owning the cores c with c % K == p. Each core's ops flow
// through one single-producer single-consumer ring of 16-byte slots,
// published in batches of about kBatch slots. The calling thread is the one
// consumer: it runs the same replay loop as a serial run, popping a core's
// next op where the serial port would fetch from that core's TraceSource,
// and does the after-L1 half of every access (counters, L2, profilers,
// controller) itself. The replay sees the exact serial op stream, so results
// are byte-identical to the serial loop at any K.
//
// Records. A slot holds one of two things, told apart by its last byte:
//  * an op slot (last byte 0): one plain OpRecord {addr, gap, write,
//    l1_hit, failed}. Every L1 miss, every failed fetch and every L1 hit
//    whose gap does not fit a byte goes as one, and so does each hit of a
//    stretch of fewer than kMinRun hits whose gaps do.
//  * a run slot (last byte kMinRun..kMaxRun): that many consecutive L1 hits
//    of the core, each reduced to its one-byte gap (a hit's address and
//    write bit matter to nothing after the L1). On the recorded 8T_02 traces
//    a run slot carries about 10 hits, and the ring holds about 4 times as
//    many ops as with op slots alone; on 4T_10, whose L1 misses half the
//    time, about 4 hits and 1.2 times as many ops.
// pop() hands a run out as hits, each saying how many hits of its run follow
// it (OpRecord::run), and the replay commits those followers in one loop
// through run_gaps() and skip_run() (see replay_loop.hpp).
//
// Errors surface where the serial loop would meet them. A producer that
// fails on a core's op records the exception at that op's ring position
// (after the run of hits before it) and stops producing for the core; pop()
// hands the failed record back like any other, and the replay rethrows the
// error only when it executes that op. A failure past the last op the replay
// executes is never seen. Every producer call that can throw sits inside that
// per-batch catch, so a producer never fails anywhere else.
//
// No deadlock: a producer sleeps only while every ring it owns is full, and
// the consumer waits only on an empty ring, so the two never wait on the same
// ring. A failed core's ring ends in its failed record, which the consumer
// stops at.
//
// Memory: a ring is kSlots slots of 16 B, 16 KiB per core, so that a
// pipelined job's peak RSS stays at a serial one's. The ring can be that
// small because the nap is short: a producer whose rings are all full sleeps
// 10 us with a 1 ns timer slack (Linux), and the consumer, popping from
// every core's ring in turn, takes longer than that to empty one. A full
// ring holds at least kSlots ops, and kMaxRun times as many when every slot
// is a run, so the cores that hit their L1 most (and so drain their ops
// fastest) have the most in hand. A producer that wakes late (a busy host)
// can still let a ring run dry. Waking producers by futex was slower
// (ROADMAP).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "plrupart/sim/memory_hierarchy.hpp"
#include "plrupart/sim/mem_op.hpp"

namespace plrupart::sim::internal {

/// Brief spin, then yield: ring waits are short when the pipeline is
/// balanced, but oversubscribed hosts (and the TSan tier) need the yield to
/// let the thread holding the awaited state run at all.
inline void spin_then_yield(std::uint32_t& spins) noexcept {
  if (++spins >= 32) {
    spins = 0;
    std::this_thread::yield();
  }
}

/// One front-end record: a trace op plus its private-L1 outcome.
struct OpRecord {
  cache::Addr addr = 0;
  std::uint32_t gap_instrs = 0;
  bool write = false;
  bool l1_hit = false;
  bool failed = false;  ///< the producer failed here; the ring's error says why
  /// In a ring slot: 0, which marks an op slot. On a popped L1 hit: how many
  /// hits of its run follow it (0 for a hit that came as an op).
  std::uint8_t run = 0;
};
static_assert(sizeof(OpRecord) == 16);

/// The most L1 hits one run slot carries.
inline constexpr std::uint8_t kMaxRun = 15;
/// The fewest: one or two hits pop faster as op slots (runs of two made
/// 4T_10 jobs at K=2 about 2% slower).
inline constexpr std::uint8_t kMinRun = 3;

/// A run slot: consecutive L1 hits of one core, as one-byte gaps, with their
/// count in the byte where an op slot keeps its 0 run.
struct HitRun {
  std::array<std::uint8_t, kMaxRun> gaps{};
  std::uint8_t count = 0;
};
static_assert(sizeof(HitRun) == sizeof(OpRecord));
static_assert(offsetof(HitRun, count) == offsetof(OpRecord, run));

/// Cache-line aligned (and so padded): the producers read its members on
/// every op, and it lives on the consumer's stack next to locals the replay
/// writes all the time. Sharing a line with those made `--sim-threads 2`
/// runs about a third slower on a 4-vCPU x86 host.
class alignas(64) FrontEnd {
 public:
  static constexpr std::uint64_t kSlots = 1024;  ///< slots per core's ring
  static constexpr std::uint64_t kBatch = 64;    ///< at most, slots per publication

  /// Start one thread per thread `producers` counts (at least one, at most
  /// one per core) over `traces` and the L1s of `hierarchy`.
  FrontEnd(const std::vector<std::unique_ptr<TraceSource>>& traces,
           MemoryHierarchy& hierarchy, BusyThreads producers);
  /// Stops and joins every producer.
  ~FrontEnd();
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Consumer: `core`'s next op, waiting while the ring is empty. A hit
  /// from a run slot comes with `run` set to the hits of its run that follow
  /// it. A record the producer failed on comes back with `failed` set;
  /// rethrow(core) raises its exception. Pop no further on that core.
  OpRecord pop(std::uint32_t core) {
    Cursor& cur = cursors_[core];
    if (cur.next != cur.run.count) {
      const std::uint8_t gap = cur.run.gaps[cur.next++];
      return OpRecord{.gap_instrs = gap,
                      .l1_hit = true,
                      .run = static_cast<std::uint8_t>(cur.run.count - cur.next)};
    }
    Ring& ring = *rings_[core];
    if (cur.pos == cur.head_seen) {
      std::uint32_t spins = 0;
      while ((cur.head_seen = ring.head.load(std::memory_order_acquire)) == cur.pos) {
        spin_then_yield(spins);
      }
    }
    const OpRecord rec = ring.slots[cur.pos & (kSlots - 1)];
    if ((++cur.pos & (kBatch - 1)) == 0) {
      ring.tail.store(cur.pos, std::memory_order_release);
    }
    if (rec.run == 0) return rec;
    std::memcpy(static_cast<void*>(&cur.run), &rec, sizeof rec);
    cur.next = 1;
    return OpRecord{.gap_instrs = cur.run.gaps[0],
                    .l1_hit = true,
                    .run = static_cast<std::uint8_t>(rec.run - 1)};
  }

  /// Consumer: the gaps of the hits that follow `core`'s last popped hit in
  /// its run (its `run` of them, less any skipped since).
  [[nodiscard]] const std::uint8_t* run_gaps(std::uint32_t core) const {
    const Cursor& cur = cursors_[core];
    return cur.run.gaps.data() + cur.next;
  }
  /// Consumer: take the next `n` of those hits as committed; pop() goes on
  /// after them.
  void skip_run(std::uint32_t core, std::uint32_t n) {
    cursors_[core].next = static_cast<std::uint8_t>(cursors_[core].next + n);
  }

  /// Consumer: raise the exception of `core`'s failed record, once popped.
  [[noreturn]] void rethrow(std::uint32_t core) const {
    std::rethrow_exception(rings_[core]->error);
  }

 private:
  struct Ring {
    alignas(64) std::atomic<std::uint64_t> head{0};  ///< slots published
    // The owning producer's private state: only it reads or writes these.
    std::uint64_t produced = 0;   ///< slots produced (head's next value)
    std::uint64_t tail_seen = 0;  ///< last tail loaded
    bool failed = false;          ///< stopped at its failed record
    alignas(64) std::atomic<std::uint64_t> tail{0};  ///< slots consumed
    std::unique_ptr<OpRecord[]> slots = std::make_unique<OpRecord[]>(kSlots);
    std::exception_ptr error;  ///< set before the failed record is published
  };
  /// The consumer's private view of one ring.
  struct Cursor {
    std::uint64_t pos = 0;        ///< next slot to pop
    std::uint64_t head_seen = 0;  ///< last head loaded
    HitRun run;                   ///< the last run slot popped, copied out
    std::uint8_t next = 0;        ///< its next hit to hand out; run.count if none
  };

  void produce(std::uint32_t producer) noexcept;
  void stop_and_join() noexcept;

  const std::vector<std::unique_ptr<TraceSource>>& traces_;
  MemoryHierarchy& hierarchy_;
  BusyThreads busy_;  ///< the producers, counted against the thread budget
  const std::uint32_t producers_;
  std::vector<std::unique_ptr<Ring>> rings_;  ///< per core
  std::vector<Cursor> cursors_;               ///< per core, consumer-only
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace plrupart::sim::internal
