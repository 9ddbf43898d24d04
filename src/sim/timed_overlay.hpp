// The timed overlay of CmpSimulator (`--timing timed`): TimedClocks charges
// memory latency from the MSHR/writeback/banked-DRAM model (TimedMemory), and
// TimedOverlay feeds it the replay loop's inputs through a ring, so that a
// helper thread can apply them while the replay runs on.
//
// The overlay only ever reads the functional stream (see replay_loop.hpp), so
// nothing the replay does waits on it except the reads of its clocks: at
// window open, at each core's freeze and at finish. Every input (on_access,
// open_window, settle) becomes one 24-byte TimedRecord, and every record is
// applied by TimedClocks::apply in the order the replay made it, on whichever
// thread applies it. Cycles, ipc and TimedStats are therefore the same bytes
// whether the records run inline or on the helper.
//
// Who applies the records:
//  * Until the ring first fills, nobody in the background: a clock read
//    applies what is buffered on the replay thread. Short jobs (and set-up
//    runs) end here and never start a thread.
//  * When the ring first fills, the overlay asks BusyThreads
//    (common/parallel.hpp) for one more thread. If the process has one free,
//    a helper thread starts and applies every record from then on; the replay
//    publishes a batch of kBatch records at a time and waits only for room
//    in a full ring and, at a clock read, for the helper to drain it. If no
//    thread is free, the replay thread applies what the ring holds and then
//    each record as it comes, for the rest of the job.
//
// Waits spin for about one batch's publication interval, then block on
// std::atomic::wait. An exception on the helper is kept and rethrown on the
// replay thread at its next clock read; the helper keeps consuming (without
// applying) so the replay never waits on a dead consumer. The destructor
// stops and joins the helper on every exit path.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "plrupart/common/bits.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/sim/timed_memory.hpp"

namespace plrupart::sim::internal {

/// One TimedClocks input: an access (its op and L2 echo), a window open, or
/// a core's settle.
struct TimedRecord {
  static constexpr std::uint8_t kWrite = 1;
  static constexpr std::uint8_t kReachedL2 = 2;
  static constexpr std::uint8_t kHit = 4;
  static constexpr std::uint8_t kEvictedValid = 8;
  static constexpr std::uint8_t kOpenWindow = 16;
  static constexpr std::uint8_t kSettle = 32;

  cache::Addr addr = 0;
  cache::Addr evicted_line = 0;
  std::uint32_t gap_instrs = 0;
  std::uint8_t core = 0;  ///< cores <= ways <= kMaxAssociativity
  std::uint8_t way = 0;
  std::uint8_t flags = 0;
};
static_assert(sizeof(TimedRecord) == 24);
static_assert(kMaxAssociativity <= 256, "TimedRecord keeps cores and ways in a byte");

/// The timed clocks: a second per-core clock charges memory latency from the
/// event-driven MSHR/writeback/banked-DRAM model (TimedMemory) instead of the
/// fixed penalties, and those clocks are what the SimResult reports.
///
/// A core keeps at most one L2 transaction in flight (its `outstanding`
/// ticket). L1 hits retire under it — hit-under-miss — and the fill is awaited
/// lazily at the core's next L2-reaching access, charging only the exposed
/// fraction of whatever latency is still uncovered at that point. Cross-core
/// concurrency is real: many cores' fills occupy MSHRs and DRAM banks at once,
/// which is where queueing, coalescing, and bank conflicts come from.
class TimedClocks {
 public:
  explicit TimedClocks(const SimConfig& config);

  /// Apply one input; records must arrive in the replay's order.
  void apply(const TimedRecord& r) {
    if ((r.flags & (TimedRecord::kOpenWindow | TimedRecord::kSettle)) == 0) {
      access(r);
    } else if ((r.flags & TimedRecord::kSettle) != 0) {
      settle(r.core);
    } else {
      open_window();
    }
  }
  [[nodiscard]] double clock(std::uint32_t core) const { return cores_[core].cycles; }
  void finish(SimResult& out) const;

 private:
  /// One core's timed state, with the parameters it charges by. On a line
  /// of its own: only the thread applying the records touches it.
  struct alignas(64) TimedCore {
    double cycles = 0.0;  ///< the timed clock (what this mode reports)
    double base_ipc = 1.0;
    double stall_fraction = 0.0;
    TimedMemory::Ticket outstanding{};
    bool has_outstanding = false;
  };

  /// Same committed instructions as the functional clock, latency from the model.
  void access(const TimedRecord& r);
  /// Settle every in-flight transaction so the measured window starts from a
  /// clean overlay, then restart peak tracking.
  void open_window();
  /// Await core's in-flight L2 transaction and charge the exposed remainder
  /// (at a freeze: the quota's last miss belongs to the window).
  void settle(std::uint32_t core);

  TimedMemory memory_;
  std::vector<TimedCore> cores_;
  std::uint32_t line_shift_;     ///< log2 of the L2 line size
  std::uint32_t l2_hit_cycles_;
  TimedStats stats_base_;  ///< snapshot of the overlay counters at window open
};

/// The replay loop's clocks in timed mode: TimedClocks behind a
/// single-producer ring (see the file comment). Cache-line aligned, with the
/// helper's state, the replay's state and each ring index on lines of their
/// own: the object lives on the replay thread's stack.
class alignas(64) TimedOverlay {
 public:
  static constexpr std::uint32_t kSlots = 1024;  ///< records in the ring
  static constexpr std::uint32_t kBatch = 64;    ///< records per publication

  explicit TimedOverlay(const SimConfig& config);
  /// Stops and joins the helper, if one started.
  ~TimedOverlay();
  TimedOverlay(const TimedOverlay&) = delete;
  TimedOverlay& operator=(const TimedOverlay&) = delete;

  /// The clocks contract of internal::replay. Reads drain the ring first.
  [[nodiscard]] double clock(std::uint32_t core, const CoreModel& /*model*/) {
    drain();
    return clocks_.clock(core);
  }
  template <class Op>
  void on_access(std::uint32_t core, const Op& op, const L2Echo& echo) {
    push(TimedRecord{
        .addr = op.addr,
        .evicted_line = echo.evicted_line,
        .gap_instrs = op.gap_instrs,
        .core = static_cast<std::uint8_t>(core),
        .way = static_cast<std::uint8_t>(echo.way),
        .flags = static_cast<std::uint8_t>(
            (op.write ? TimedRecord::kWrite : 0) |
            (echo.reached_l2 ? TimedRecord::kReachedL2 : 0) |
            (echo.hit ? TimedRecord::kHit : 0) |
            (echo.evicted_valid ? TimedRecord::kEvictedValid : 0))});
  }
  void open_window() { push(TimedRecord{.flags = TimedRecord::kOpenWindow}); }
  void settle(std::uint32_t core) {
    push(TimedRecord{.core = static_cast<std::uint8_t>(core),
                     .flags = TimedRecord::kSettle});
  }
  void finish(SimResult& out) {
    drain();
    clocks_.finish(out);
  }

 private:
  enum class Mode : std::uint8_t {
    kBuffering,  ///< no helper yet; clock reads apply the ring inline
    kHelper,     ///< the helper applies every record
    kDirect,     ///< no thread was free: the replay applies each record
  };

  void push(const TimedRecord& r) {
    if (mode_ == Mode::kDirect) {
      clocks_.apply(r);
      return;
    }
    slots_[produced_ & (kSlots - 1)] = r;
    if ((++produced_ & (kBatch - 1)) == 0) publish();
  }
  /// At each batch boundary, outside kDirect.
  void publish();
  /// Apply every record the ring holds, on this thread or through the helper.
  void drain();
  /// Replay thread, no helper running: apply the buffered records here.
  void apply_inline();
  /// The ring is first full: start the helper, or go direct for good.
  void start_helper();
  /// The helper thread's loop.
  void serve() noexcept;

  TimedClocks clocks_;  ///< the helper's, once it starts; first member, own lines

  // Replay thread only.
  alignas(64) std::uint32_t produced_ = 0;  ///< records pushed
  std::uint32_t tail_seen_ = 0;             ///< records known applied
  Mode mode_ = Mode::kBuffering;

  alignas(64) std::atomic<std::uint32_t> head_{0};  ///< records published
  alignas(64) std::atomic<std::uint32_t> tail_{0};  ///< records applied
  std::exception_ptr error_;  ///< the helper's failure; set before a tail store

  // Set once, read by both threads; the helper last, after what it uses.
  alignas(64) std::unique_ptr<TimedRecord[]> slots_;
  std::atomic<bool> stop_{false};
  std::thread helper_;
};

}  // namespace plrupart::sim::internal
