// The per-core front-end pipeline of CmpSimulator: `--sim-threads K` with
// K >= 2, or the CLI's default `--sim-threads 0` when at least two threads are
// free (see BusyThreads in common/parallel.hpp).
//
// A private L1D is a pure per-core filter: MemoryHierarchy runs it before the
// shared L2 and nothing back-invalidates it, so each core's L1 outcomes depend
// only on that core's own address sequence. K producer threads therefore run
// the front end — TraceSource::next() plus the core's L1 — ahead of the
// replay, producer p owning the cores c with c % K == p. Each core's records
// {addr, gap, write, l1_hit} flow through one single-producer single-consumer
// ring, published in kBatch-op batches. The calling thread is the one
// consumer: it runs the same replay loop as a serial run, popping a core's
// next record where the serial port would fetch from that core's
// TraceSource, and does the after-L1 half of every access (counters, L2,
// profilers, controller) itself. The replay sees the exact serial op stream,
// so results are byte-identical to the serial loop at any K.
//
// Errors surface where the serial loop would meet them. A producer that
// fails on a core's op records the exception at that op's ring position and
// stops producing for the core; pop() hands the failed record back like any
// other, and the replay rethrows the error only when it executes that op. A
// failure past the last op the replay executes is never seen. Every producer
// call that can throw sits inside that per-batch catch, so a producer never
// fails anywhere else.
//
// No deadlock: a producer sleeps only while every ring it owns is full, and
// the consumer waits only on an empty ring, so the two never wait on the same
// ring. A failed core's ring ends in its failed record, which the consumer
// stops at.
//
// Memory: a ring is kSlots records of 16 B, 16 KiB per core, so that a
// pipelined job's peak RSS stays at a serial one's. It can be small because
// the nap is short: a producer whose rings are all full sleeps 10 us with a
// 1 ns timer slack (Linux), and the consumer, popping from every core's ring
// in turn, takes longer than that to empty one. A producer that wakes late
// (a busy host) can still let a ring run dry: 4096 slots with a 50 us nap
// were about 10% faster there, at four times the memory. Waking producers by
// futex was slower (ROADMAP).
#pragma once

#include <atomic>
#include <cstdint>
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
inline void shard_relax(std::uint32_t& spins) noexcept {
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
};
static_assert(sizeof(OpRecord) == 16);

/// Cache-line aligned (and so padded): the producers read its members on
/// every op, and it lives on the consumer's stack next to locals the replay
/// writes all the time. Sharing a line with those made `--sim-threads 2`
/// runs about a third slower on a 4-vCPU x86 host.
class alignas(64) FrontEnd {
 public:
  static constexpr std::uint64_t kSlots = 1024;  ///< records per core's ring
  static constexpr std::uint64_t kBatch = 64;    ///< records per publication

  /// Start one thread per thread `producers` counts (at least one, at most
  /// one per core) over `traces` and the L1s of `hierarchy`.
  FrontEnd(const std::vector<std::unique_ptr<TraceSource>>& traces,
           MemoryHierarchy& hierarchy, BusyThreads producers);
  /// Stops and joins every producer.
  ~FrontEnd();
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Consumer: `core`'s next record, waiting while the ring is empty. A
  /// record the producer failed on comes back with `failed` set;
  /// rethrow(core) raises its exception. Pop no further on that core.
  OpRecord pop(std::uint32_t core) {
    Cursor& cur = cursors_[core];
    Ring& ring = *rings_[core];
    if (cur.pos == cur.head_seen) {
      std::uint32_t spins = 0;
      while ((cur.head_seen = ring.head.load(std::memory_order_acquire)) == cur.pos) {
        shard_relax(spins);
      }
    }
    const OpRecord rec = ring.slots[cur.pos & (kSlots - 1)];
    if ((++cur.pos & (kBatch - 1)) == 0) {
      ring.tail.store(cur.pos, std::memory_order_release);
    }
    return rec;
  }

  /// Consumer: raise the exception of `core`'s failed record, once popped.
  [[noreturn]] void rethrow(std::uint32_t core) const {
    std::rethrow_exception(rings_[core]->error);
  }

 private:
  struct Ring {
    alignas(64) std::atomic<std::uint64_t> head{0};  ///< records published
    // The owning producer's private state: only it reads or writes these.
    std::uint64_t produced = 0;   ///< records produced (head's next value)
    std::uint64_t tail_seen = 0;  ///< last tail loaded
    bool failed = false;          ///< stopped at its failed record
    alignas(64) std::atomic<std::uint64_t> tail{0};  ///< records consumed
    std::unique_ptr<OpRecord[]> slots = std::make_unique<OpRecord[]>(kSlots);
    std::exception_ptr error;  ///< set before the failed record is published
  };
  /// The consumer's private view of one ring.
  struct Cursor {
    std::uint64_t pos = 0;        ///< next record to pop
    std::uint64_t head_seen = 0;  ///< last head loaded
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
