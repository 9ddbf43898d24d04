#include "plrupart/sim/timed_memory.hpp"

#include <algorithm>

#include "plrupart/common/assert.hpp"
#include "plrupart/common/error.hpp"

namespace plrupart::sim {

std::string to_string(TimingMode mode) {
  return mode == TimingMode::kTimed ? "timed" : "functional";
}

TimingMode timing_mode_from_string(const std::string& text) {
  if (text == "functional") return TimingMode::kFunctional;
  if (text == "timed") return TimingMode::kTimed;
  throw InvariantError("unknown timing mode '" + text +
                       "' (expected 'functional' or 'timed')");
}

void TimedParams::validate() const {
  PLRUPART_ASSERT_MSG(mshrs >= 1, "timed mode needs at least one MSHR");
  PLRUPART_ASSERT_MSG(writeback_queue >= 1,
                      "timed mode needs at least one writeback-queue slot");
  PLRUPART_ASSERT_MSG(dram_banks >= 1, "timed mode needs at least one DRAM bank");
  PLRUPART_ASSERT_MSG(row_bytes >= 1, "row_bytes must be positive");
}

TimedStats TimedStats::delta_since(const TimedStats& base) const {
  TimedStats d;
  d.dram_reads = dram_reads - base.dram_reads;
  d.dram_writebacks = dram_writebacks - base.dram_writebacks;
  d.row_hits = row_hits - base.row_hits;
  d.row_misses = row_misses - base.row_misses;
  d.bank_conflicts = bank_conflicts - base.bank_conflicts;
  d.mshr_coalesced = mshr_coalesced - base.mshr_coalesced;
  d.mshr_full_stalls = mshr_full_stalls - base.mshr_full_stalls;
  d.wb_full_stalls = wb_full_stalls - base.wb_full_stalls;
  d.dram_bytes = dram_bytes - base.dram_bytes;
  d.mshr_peak = mshr_peak;  // peak tracking restarts at mark(), not here
  return d;
}

TimedMemory::TimedMemory(const TimedParams& params, const cache::Geometry& l2_geo)
    : params_(params), geo_(l2_geo) {
  params_.validate();
  geo_.validate();
  PLRUPART_ASSERT_MSG(params_.row_bytes >= geo_.line_bytes,
                      "DRAM row must span at least one cache line");
  banks_.resize(params_.dram_banks);
  // Slot bookkeeping is sized on demand (a filled-but-unretired entry briefly
  // holds a slot past its hardware lifetime); the HARDWARE limit is enforced
  // on pending_ in alloc_mshr, never on the slot count.
  mshrs_.reserve(params_.mshrs);
  dirty_.assign(geo_.sets() * geo_.associativity, false);
  lines_per_row_ = std::max<std::uint64_t>(1, params_.row_bytes / geo_.line_bytes);
  pow2_interleave_ = is_pow2(params_.dram_banks) && is_pow2(lines_per_row_);
  if (pow2_interleave_)
    row_shift_ = ilog2_exact(params_.dram_banks) + ilog2_exact(lines_per_row_);
}

std::uint32_t TimedMemory::bank_of(cache::Addr line) const noexcept {
  if (pow2_interleave_) return static_cast<std::uint32_t>(line & (params_.dram_banks - 1));
  return static_cast<std::uint32_t>(line % params_.dram_banks);
}

std::uint64_t TimedMemory::row_of(cache::Addr line) const noexcept {
  if (pow2_interleave_) return line >> row_shift_;
  return (line / params_.dram_banks) / lines_per_row_;
}

std::size_t TimedMemory::dirty_index(cache::Addr line, std::uint32_t way) const {
  PLRUPART_ASSERT(way < geo_.associativity);
  return static_cast<std::size_t>(geo_.set_index(line)) * geo_.associativity + way;
}

void TimedMemory::process_until(std::uint64_t t) {
  while (!queue_.empty() && queue_.peek().tick <= t) handle(queue_.pop());
}

void TimedMemory::handle(const TimedEvent& ev) {
  switch (ev.kind) {
    case EventKind::kBankService: {
      Bank& bank = banks_[ev.lane];
      PLRUPART_ASSERT(bank.in_service);
      // Completion chains through a same-tick event (FIFO tie-break keeps it
      // ordered after this one): the fill/drain effect and the bank's next
      // service decision stay distinct, observable steps.
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
    case EventKind::kUser:
      break;
  }
}

void TimedMemory::start_service(std::uint32_t bank_idx, std::uint64_t t) {
  Bank& bank = banks_[bank_idx];
  PLRUPART_ASSERT(!bank.in_service && !bank.pending.empty());
  // FR-FCFS: open-row hits first, reads before writebacks, oldest first
  // within a class. The arrival stamp makes the pick a strict total order.
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
  bank.pending.erase(bank.pending.begin() +
                     static_cast<std::ptrdiff_t>(best));

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
  bank.row_valid = true;  // open-page policy: the row stays open after service
  bank.in_service = true;
  bank.in_service_req = req;
  queue_.schedule(t + latency, EventKind::kBankService, bank_idx);
}

void TimedMemory::enqueue_dram(std::uint64_t t, DramRequest req) {
  req.order = next_order_++;
  const std::uint32_t b = bank_of(req.line);
  req.row = row_of(req.line);
  Bank& bank = banks_[b];
  bank.pending.push_back(req);
  if (!bank.in_service) start_service(b, t);
}

std::uint32_t TimedMemory::alloc_mshr(std::uint64_t& t) {
  if (pending_ >= params_.mshrs) {
    // The hardware MSHR file is full: the issue stalls until a fill frees an
    // entry. Every pending entry has a completion event in flight, so the
    // queue cannot run dry before the file drains.
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

TimedMemory::Ticket TimedMemory::miss(std::uint64_t t_issue, cache::Addr line,
                                      std::uint32_t way, bool write, bool evicted_valid,
                                      cache::Addr evicted_line) {
  process_until(t_issue);
  // Coalesce: a pending fill for the same line absorbs this miss (the
  // functional cache evicted and re-missed the line inside the fill window).
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

  // Victim writeback leaves first (it must clear the line buffer before the
  // fill lands); a full writeback queue backpressures the whole miss.
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

TimedMemory::Ticket TimedMemory::hit(std::uint64_t t_issue, cache::Addr line,
                                     std::uint32_t way, bool write) {
  process_until(t_issue);
  const std::size_t di = dirty_index(line, way);
  dirty_[di] = dirty_[di] || write;
  // A functional hit on a line whose fill is still in flight coalesces into
  // the MSHR: the data is not there yet, so the consumer waits for the fill
  // (hit-under-miss on the SAME line is a merge, not a hit).
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

std::uint64_t TimedMemory::retire(Ticket ticket) {
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

void TimedMemory::drain() {
  while (!queue_.empty()) handle(queue_.pop());
}

}  // namespace plrupart::sim
