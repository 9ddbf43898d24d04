// Reference implementation of TimedMemory, frozen at the generic-event-queue
// design: every bank service completion, MSHR fill and writeback drain is one
// event on a binary min-heap ordered by (tick, seq), with seq assigned at
// schedule time so same-tick events pop in schedule order.
//
// test_timed_memory_diff.cpp drives this model and the production TimedMemory
// with the same seeded miss/hit/retire/drain streams and asserts identical
// tickets, fill ticks, counters and occupancy after every call. The
// production model serves the same (tick, seq) order from per-bank slots and a
// same-tick completion ring; this copy is the order it must reproduce.
//
// Deliberately NOT deduplicated with src/sim/timed_memory.cpp: sharing code
// would let a bug in the optimized path hide in the reference. Only the
// parameter and counter structs (TimedParams, TimedStats) are shared.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/common/assert.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/sim/timed_memory.hpp"

namespace plrupart::testing {

enum class EventKind : std::uint8_t {
  kBankService,     ///< a DRAM bank finished its in-service request
  kMshrComplete,    ///< an L2 miss's fill data arrived (MSHR releases)
  kWritebackDrain,  ///< a writeback left the bounded writeback queue
};

struct TimedEvent {
  std::uint64_t tick = 0;  ///< simulated cycle the event fires at
  std::uint64_t seq = 0;   ///< schedule order; the FIFO tie-break within a tick
  EventKind kind = EventKind::kBankService;
  std::uint32_t lane = 0;  ///< bank id or MSHR slot
};

/// Monotone binary min-heap on (tick, seq). Scheduling behind the tick of the
/// latest pop, and popping backwards in time, both throw.
class ReferenceEventQueue {
 public:
  void schedule(std::uint64_t tick, EventKind kind, std::uint32_t lane) {
    PLRUPART_ASSERT_MSG(tick >= now_,
                        "event scheduled at tick " + std::to_string(tick) +
                            " behind the monotone floor " + std::to_string(now_));
    heap_.push_back(TimedEvent{tick, next_seq_++, kind, lane});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  [[nodiscard]] const TimedEvent& peek() const {
    PLRUPART_ASSERT_MSG(!heap_.empty(), "peek on an empty event queue");
    return heap_.front();
  }

  TimedEvent pop() {
    PLRUPART_ASSERT_MSG(!heap_.empty(), "pop on an empty event queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    TimedEvent ev = heap_.back();
    heap_.pop_back();
    PLRUPART_ASSERT_MSG(ev.tick >= now_, "event queue popped backwards in time");
    now_ = ev.tick;
    return ev;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }

 private:
  struct Later {
    [[nodiscard]] bool operator()(const TimedEvent& a, const TimedEvent& b) const noexcept {
      if (a.tick != b.tick) return a.tick > b.tick;
      return a.seq > b.seq;
    }
  };
  std::vector<TimedEvent> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t now_ = 0;
};

class ReferenceTimedMemory {
 public:
  struct Ticket {
    std::uint32_t slot = 0;
    bool valid = false;
  };

  ReferenceTimedMemory(const sim::TimedParams& params, const cache::Geometry& l2_geo)
      : params_(params), geo_(l2_geo) {
    params_.validate();
    geo_.validate();
    PLRUPART_ASSERT_MSG(params_.row_bytes >= geo_.line_bytes,
                        "DRAM row must span at least one cache line");
    banks_.resize(params_.dram_banks);
    mshrs_.reserve(params_.mshrs);
    dirty_.assign(geo_.sets() * geo_.associativity, false);
    lines_per_row_ = std::max<std::uint64_t>(1, params_.row_bytes / geo_.line_bytes);
    pow2_interleave_ = is_pow2(params_.dram_banks) && is_pow2(lines_per_row_);
    if (pow2_interleave_)
      row_shift_ = ilog2_exact(params_.dram_banks) + ilog2_exact(lines_per_row_);
  }

  Ticket miss(std::uint64_t t_issue, cache::Addr line, std::uint32_t way, bool write,
              bool evicted_valid, cache::Addr evicted_line) {
    process_until(t_issue);
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
      Mshr& m = mshrs_[i];
      if (m.refs > 0 && !m.done && m.line == line) {
        ++m.refs;
        ++stats_.mshr_coalesced;
        const std::size_t di = dirty_index(line, way);
        dirty_[di] = dirty_[di] || write;
        return Ticket{static_cast<std::uint32_t>(i), true};
      }
    }

    std::uint64_t t = std::max(t_issue, queue_.now());
    const std::uint32_t slot = alloc_mshr(t);

    if (evicted_valid && dirty_[dirty_index(line, way)]) {
      if (wb_used_ >= params_.writeback_queue) {
        ++stats_.wb_full_stalls;
        while (wb_used_ >= params_.writeback_queue) {
          PLRUPART_ASSERT_MSG(!queue_.empty(),
                              "writeback queue full with no event in flight");
          handle(queue_.pop());
        }
        t = std::max(t, queue_.now());
      }
      ++wb_used_;
      ++stats_.dram_writebacks;
      stats_.dram_bytes += geo_.line_bytes;
      DramRequest wb;
      wb.line = evicted_line;
      wb.writeback = true;
      enqueue_dram(t + params_.l2_miss_to_dram_cycles, wb);
    }
    dirty_[dirty_index(line, way)] = write;

    Mshr& m = mshrs_[slot];
    m.line = line;
    m.done = false;
    m.done_at = 0;
    m.refs = 1;
    ++pending_;
    stats_.mshr_peak = std::max(stats_.mshr_peak, pending_);
    ++stats_.dram_reads;
    stats_.dram_bytes += geo_.line_bytes;

    DramRequest rd;
    rd.line = line;
    rd.mshr = slot;
    enqueue_dram(t + params_.l2_miss_to_dram_cycles, rd);
    return Ticket{slot, true};
  }

  Ticket hit(std::uint64_t t_issue, cache::Addr line, std::uint32_t way, bool write) {
    process_until(t_issue);
    const std::size_t di = dirty_index(line, way);
    dirty_[di] = dirty_[di] || write;
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
      Mshr& m = mshrs_[i];
      if (m.refs > 0 && !m.done && m.line == line) {
        ++m.refs;
        ++stats_.mshr_coalesced;
        return Ticket{static_cast<std::uint32_t>(i), true};
      }
    }
    return Ticket{};
  }

  std::uint64_t retire(Ticket ticket) {
    PLRUPART_ASSERT_MSG(ticket.valid, "retire of an invalid ticket");
    Mshr& m = mshrs_[ticket.slot];
    PLRUPART_ASSERT(m.refs > 0);
    while (!m.done) {
      PLRUPART_ASSERT_MSG(!queue_.empty(), "pending MSHR with no event in flight");
      handle(queue_.pop());
    }
    --m.refs;
    return m.done_at;
  }

  [[nodiscard]] std::uint32_t mshrs_pending() const noexcept { return pending_; }
  [[nodiscard]] std::uint32_t writebacks_in_flight() const noexcept { return wb_used_; }
  [[nodiscard]] const sim::TimedStats& stats() const noexcept { return stats_; }
  void mark() noexcept { stats_.mshr_peak = pending_; }

  void drain() {
    while (!queue_.empty()) handle(queue_.pop());
  }

 private:
  struct Mshr {
    cache::Addr line = 0;
    std::uint64_t done_at = 0;
    std::uint32_t refs = 0;
    bool done = false;
  };
  struct DramRequest {
    cache::Addr line = 0;
    std::uint64_t row = 0;
    std::uint64_t order = 0;
    std::uint32_t mshr = 0;
    bool writeback = false;
  };
  struct Bank {
    std::uint64_t open_row = 0;
    bool row_valid = false;
    bool in_service = false;
    DramRequest in_service_req;
    std::vector<DramRequest> pending;
  };

  void process_until(std::uint64_t t) {
    while (!queue_.empty() && queue_.peek().tick <= t) handle(queue_.pop());
  }

  void handle(const TimedEvent& ev) {
    switch (ev.kind) {
      case EventKind::kBankService: {
        Bank& bank = banks_[ev.lane];
        PLRUPART_ASSERT(bank.in_service);
        const DramRequest& done = bank.in_service_req;
        if (done.writeback) {
          queue_.schedule(ev.tick, EventKind::kWritebackDrain, ev.lane);
        } else {
          queue_.schedule(ev.tick, EventKind::kMshrComplete, done.mshr);
        }
        bank.in_service = false;
        if (!bank.pending.empty()) start_service(ev.lane, ev.tick);
        break;
      }
      case EventKind::kMshrComplete: {
        Mshr& m = mshrs_[ev.lane];
        PLRUPART_ASSERT(!m.done && m.refs > 0);
        m.done = true;
        m.done_at = ev.tick;
        PLRUPART_ASSERT(pending_ > 0);
        --pending_;
        break;
      }
      case EventKind::kWritebackDrain: {
        PLRUPART_ASSERT(wb_used_ > 0);
        --wb_used_;
        break;
      }
    }
  }

  void enqueue_dram(std::uint64_t t, DramRequest req) {
    req.order = next_order_++;
    const std::uint32_t b = bank_of(req.line);
    req.row = row_of(req.line);
    Bank& bank = banks_[b];
    bank.pending.push_back(req);
    if (!bank.in_service) start_service(b, t);
  }

  void start_service(std::uint32_t bank_idx, std::uint64_t t) {
    Bank& bank = banks_[bank_idx];
    PLRUPART_ASSERT(!bank.in_service && !bank.pending.empty());
    std::size_t best = 0;
    auto class_of = [&](const DramRequest& r) -> std::uint32_t {
      const bool row_hit = bank.row_valid && r.row == bank.open_row;
      return (r.writeback ? 2U : 0U) + (row_hit ? 0U : 1U);
    };
    for (std::size_t i = 1; i < bank.pending.size(); ++i) {
      const std::uint32_t ci = class_of(bank.pending[i]);
      const std::uint32_t cb = class_of(bank.pending[best]);
      if (ci < cb || (ci == cb && bank.pending[i].order < bank.pending[best].order))
        best = i;
    }
    const DramRequest req = bank.pending[best];
    bank.pending.erase(bank.pending.begin() + static_cast<std::ptrdiff_t>(best));

    std::uint64_t latency = 0;
    if (!bank.row_valid) {
      latency = params_.t_row_miss;
      ++stats_.row_misses;
    } else if (req.row == bank.open_row) {
      latency = params_.t_row_hit;
      ++stats_.row_hits;
    } else {
      latency = params_.t_row_conflict;
      ++stats_.bank_conflicts;
    }
    bank.open_row = req.row;
    bank.row_valid = true;
    bank.in_service = true;
    bank.in_service_req = req;
    queue_.schedule(t + latency, EventKind::kBankService, bank_idx);
  }

  [[nodiscard]] std::uint32_t bank_of(cache::Addr line) const noexcept {
    if (pow2_interleave_) return static_cast<std::uint32_t>(line & (params_.dram_banks - 1));
    return static_cast<std::uint32_t>(line % params_.dram_banks);
  }

  [[nodiscard]] std::uint64_t row_of(cache::Addr line) const noexcept {
    if (pow2_interleave_) return line >> row_shift_;
    return (line / params_.dram_banks) / lines_per_row_;
  }

  [[nodiscard]] std::uint32_t alloc_mshr(std::uint64_t& t) {
    if (pending_ >= params_.mshrs) {
      ++stats_.mshr_full_stalls;
      while (pending_ >= params_.mshrs) {
        PLRUPART_ASSERT_MSG(!queue_.empty(), "MSHR file full with no event in flight");
        handle(queue_.pop());
      }
      t = std::max(t, queue_.now());
    }
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
      if (mshrs_[i].refs == 0) return static_cast<std::uint32_t>(i);
    }
    mshrs_.push_back(Mshr{});
    return static_cast<std::uint32_t>(mshrs_.size() - 1);
  }

  [[nodiscard]] std::size_t dirty_index(cache::Addr line, std::uint32_t way) const {
    PLRUPART_ASSERT(way < geo_.associativity);
    return static_cast<std::size_t>(geo_.set_index(line)) * geo_.associativity + way;
  }

  sim::TimedParams params_;
  cache::Geometry geo_;
  std::uint64_t lines_per_row_ = 1;
  bool pow2_interleave_ = false;
  std::uint32_t row_shift_ = 0;
  ReferenceEventQueue queue_;
  std::vector<Mshr> mshrs_;
  std::vector<Bank> banks_;
  std::vector<bool> dirty_;
  std::uint32_t pending_ = 0;
  std::uint32_t wb_used_ = 0;
  std::uint64_t next_order_ = 0;
  sim::TimedStats stats_;
};

}  // namespace plrupart::testing
