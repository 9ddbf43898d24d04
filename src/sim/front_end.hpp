// The per-core front-end pipeline of CmpSimulator (`--sim-threads K`, K >= 2).
//
// A private L1D is a pure per-core filter: MemoryHierarchy runs it before the
// shared L2 and nothing back-invalidates it, so each core's L1 outcomes depend
// only on that core's own address sequence. K producer threads therefore run
// the front end — TraceSource::next() plus the core's L1 — ahead of the
// replay, producer p owning the cores c with c % K == p. Each core's records
// {addr, gap, write, l1_hit} flow through one single-producer single-consumer
// ring, published in kBatch-op batches. The calling thread is the one
// consumer: it runs the unchanged replay loop, popping a core's next record
// where the serial loop would call that core's TraceSource, and does the
// after-L1 half of every access (counters, L2, profilers, controller) itself.
// The replay sees the exact serial op stream, so results are byte-identical
// to the serial loop at any K.
//
// Errors surface where the serial loop would meet them. A producer that
// fails on a core's op records the exception at that op's ring position and
// stops producing for the core; the consumer rethrows it only when it pops
// that record. A failure past the last op the replay consumes is never seen.
//
// No deadlock: a producer sleeps only while every ring it owns is full, and
// the consumer waits only on an empty ring, so the two never wait on the same
// ring. A failed core's ring ends in its failed record, which the consumer
// stops at.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "plrupart/common/fault_inject.hpp"
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

/// First-error latch for failures a producer cannot pin to an op. The
/// consumer polls it in every ring wait and rethrows the latched error.
class AbortFlag {
 public:
  void raise(std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::move(error);
    }
    aborted_.store(true, std::memory_order_release);
  }

  /// Rethrow the latched error, if any.
  void check() {
    if (!aborted_.load(std::memory_order_acquire)) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  std::atomic<bool> aborted_{false};
  std::mutex mutex_;
  std::exception_ptr first_error_;
};

/// One front-end record: a trace op plus its private-L1 outcome.
struct OpRecord {
  cache::Addr addr = 0;
  std::uint32_t gap_instrs = 0;
  bool write = false;
  bool l1_hit = false;
  bool failed = false;  ///< the producer failed here; the ring's error says why
};
static_assert(sizeof(OpRecord) == 16);

class FrontEnd {
 public:
  static constexpr std::uint64_t kSlots = 4096;  ///< records per core's ring
  static constexpr std::uint64_t kBatch = 64;    ///< records per publication

  /// Start `producers` threads over `traces` and the L1s of `hierarchy`.
  /// `faults` (may be null) arms FaultSite::kWorker in the producers, keyed
  /// by (lane = core, counter = the core's op index).
  FrontEnd(const std::vector<std::unique_ptr<TraceSource>>& traces,
           MemoryHierarchy& hierarchy, std::uint32_t producers, const FaultPlan* faults);
  /// Stops and joins every producer.
  ~FrontEnd();
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Consumer: `core`'s next record. While the ring is empty, calls `poll()`
  /// (the watchdog) and rethrows any latched producer error. Rethrows the
  /// producer's exception when the record is the one it failed on.
  template <class Poll>
  OpRecord pop(std::uint32_t core, Poll&& poll) {
    Cursor& cur = cursors_[core];
    Ring& ring = *rings_[core];
    if (cur.pos == cur.head_seen) {
      std::uint32_t spins = 0;
      while ((cur.head_seen = ring.head.load(std::memory_order_acquire)) == cur.pos) {
        poll();
        abort_.check();
        shard_relax(spins);
      }
    }
    const OpRecord rec = ring.slots[cur.pos & (kSlots - 1)];
    if ((++cur.pos & (kBatch - 1)) == 0) {
      ring.tail.store(cur.pos, std::memory_order_release);
    }
    if (rec.failed) std::rethrow_exception(ring.error);
    return rec;
  }

 private:
  struct Ring {
    alignas(64) std::atomic<std::uint64_t> head{0};  ///< records published
    alignas(64) std::atomic<std::uint64_t> tail{0};  ///< records consumed
    std::unique_ptr<OpRecord[]> slots = std::make_unique<OpRecord[]>(kSlots);
    std::exception_ptr error;  ///< set before the failed record is published
  };
  /// The consumer's private view of one ring.
  struct Cursor {
    std::uint64_t pos = 0;        ///< next record to pop
    std::uint64_t head_seen = 0;  ///< last head loaded
  };

  void produce(std::uint32_t producer);
  void stop_and_join() noexcept;

  const std::vector<std::unique_ptr<TraceSource>>& traces_;
  MemoryHierarchy& hierarchy_;
  const std::uint32_t producers_;
  const FaultPlan* faults_;  ///< non-null when FaultSite::kWorker is armed
  std::vector<std::unique_ptr<Ring>> rings_;  ///< per core
  std::vector<Cursor> cursors_;               ///< per core, consumer-only
  AbortFlag abort_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace plrupart::sim::internal
