#include "plrupart/sim/timed_memory.hpp"

#include <algorithm>

#include "plrupart/common/assert.hpp"

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
  // Each bank has at most one service in flight, and its completion effect
  // applies before the bank's next completion can: one slot per bank in both.
  heap_.resize(params_.dram_banks);
  ring_.resize(params_.dram_banks);
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

namespace {

/// Lowest index of `slots` whose entry satisfies `pred`, or slots.size().
/// Every slot is visited, downwards, and a match is kept by a mask select
/// rather than an early exit, so the scan has no data-dependent branch.
template <class Slot, class Pred>
inline std::size_t lowest_match(const std::vector<Slot>& slots, Pred pred) noexcept {
  std::size_t found = slots.size();
  for (std::size_t i = slots.size(); i-- > 0;) {
    const std::size_t keep = std::size_t{0} - static_cast<std::size_t>(pred(slots[i]));
    found ^= (found ^ i) & keep;
  }
  return found;
}

}  // namespace

std::size_t TimedMemory::find_pending(cache::Addr line) const noexcept {
  // At most one unfilled MSHR holds a line, so the lowest match is the match.
  return lowest_match(mshrs_, [line](const Mshr& m) {
    return (m.line == line) & (m.refs > 0) & !m.done;  // non-short-circuit
  });
}

namespace {

template <class Event>
inline bool earlier(const Event& a, const Event& b) noexcept {
  return a.tick < b.tick || (a.tick == b.tick && a.seq < b.seq);
}

}  // namespace

[[gnu::always_inline]] inline void TimedMemory::push_bank_event(BankEvent ev) {
  PLRUPART_ASSERT(ev.tick >= now_ && heap_size_ < heap_.size());
  std::uint32_t i = heap_size_++;
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (!earlier(ev, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

[[gnu::always_inline]] inline TimedMemory::BankEvent TimedMemory::pop_bank_event() {
  const BankEvent top = heap_[0];
  const BankEvent last = heap_[--heap_size_];
  std::uint32_t i = 0;
  for (;;) {
    std::uint32_t child = 2 * i + 1;
    if (child >= heap_size_) break;
    if (child + 1 < heap_size_ && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], last)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = last;
  return top;
}

[[gnu::always_inline]] inline void TimedMemory::start_service(std::uint32_t bank_idx,
                                                              std::uint64_t t) {
  Bank& bank = banks_[bank_idx];
  PLRUPART_ASSERT(!bank.in_service && !bank.pending.empty());
  DramRequest req;
  if (bank.pending.size() == 1) {
    req = bank.pending.front();
    bank.pending.clear();
  } else {
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
    req = bank.pending[best];
    bank.pending.erase(bank.pending.begin() + static_cast<std::ptrdiff_t>(best));
  }

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
  push_bank_event(BankEvent{t + latency, next_seq_++, bank_idx});
}

[[gnu::always_inline]] inline void TimedMemory::step() {
  // The ring holds completions due at now_. A bank event precedes its head
  // only when it is due at now_ too with an older stamp: another bank
  // finishing on the same tick, or a zero-latency service.
  if (ring_size_ != 0 &&
      (heap_size_ == 0 || heap_[0].tick != now_ || heap_[0].seq > ring_[ring_head_].stamp)) {
    const Completion c = ring_[ring_head_];
    if (++ring_head_ == ring_.size()) ring_head_ = 0;
    --ring_size_;
    if (c.writeback) {
      PLRUPART_ASSERT(wb_used_ > 0);
      --wb_used_;
    } else {
      Mshr& m = mshrs_[c.mshr];
      PLRUPART_ASSERT(!m.done && m.refs > 0);
      m.done = true;
      m.done_at = now_;
      PLRUPART_ASSERT(pending_ > 0);
      --pending_;
    }
    return;
  }
  const BankEvent ev = pop_bank_event();
  PLRUPART_ASSERT_MSG(ev.tick >= now_, "timed memory stepped backwards in time");
  now_ = ev.tick;
  Bank& bank = banks_[ev.bank];
  PLRUPART_ASSERT(bank.in_service);
  // The fill/drain effect is stamped before the bank's next service, so it
  // applies first: the two stay distinct, ordered steps.
  PLRUPART_ASSERT(ring_size_ < ring_.size());
  std::uint32_t tail = ring_head_ + ring_size_++;
  if (tail >= ring_.size()) tail -= static_cast<std::uint32_t>(ring_.size());
  ring_[tail] = Completion{next_seq_++, bank.in_service_req.mshr,
                           bank.in_service_req.writeback};
  bank.in_service = false;
  if (!bank.pending.empty()) start_service(ev.bank, now_);
}

[[gnu::always_inline]] inline void TimedMemory::process_until(std::uint64_t t) {
  while (!idle() && next_tick() <= t) step();
}

[[gnu::always_inline]] inline void TimedMemory::enqueue_dram(std::uint64_t t,
                                                             DramRequest req) {
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
    // entry. Every pending entry has a completion in flight, so the events
    // cannot run dry before the file drains.
    ++stats_.mshr_full_stalls;
    while (pending_ >= params_.mshrs) {
      PLRUPART_ASSERT_MSG(!idle(), "MSHR file full with no event in flight");
      step();
    }
    t = std::max(t, now_);
  }
  const std::size_t slot = lowest_match(mshrs_, [](const Mshr& m) { return m.refs == 0; });
  if (slot == mshrs_.size()) mshrs_.push_back(Mshr{});
  return static_cast<std::uint32_t>(slot);
}

TimedMemory::Ticket TimedMemory::miss(std::uint64_t t_issue, cache::Addr line,
                                      std::uint32_t way, bool write, bool evicted_valid,
                                      cache::Addr evicted_line) {
  process_until(t_issue);
  const std::size_t di = dirty_index(line, way);
  // Coalesce: a pending fill for the same line absorbs this miss (the
  // functional cache evicted and re-missed the line inside the fill window).
  if (const std::size_t i = find_pending(line); i < mshrs_.size()) {
    ++mshrs_[i].refs;
    ++stats_.mshr_coalesced;
    dirty_[di] = dirty_[di] || write;
    return Ticket{static_cast<std::uint32_t>(i), true};
  }

  std::uint64_t t = std::max(t_issue, now_);
  const std::uint32_t slot = alloc_mshr(t);

  // Victim writeback leaves first (it must clear the line buffer before the
  // fill lands); a full writeback queue backpressures the whole miss.
  if (evicted_valid && dirty_[di]) {
    if (wb_used_ >= params_.writeback_queue) {
      ++stats_.wb_full_stalls;
      while (wb_used_ >= params_.writeback_queue) {
        PLRUPART_ASSERT_MSG(!idle(), "writeback queue full with no event in flight");
        step();
      }
      t = std::max(t, now_);
    }
    ++wb_used_;
    ++stats_.dram_writebacks;
    stats_.dram_bytes += geo_.line_bytes;
    DramRequest wb;
    wb.line = evicted_line;
    wb.writeback = true;
    enqueue_dram(t + params_.l2_miss_to_dram_cycles, wb);
  }
  dirty_[di] = write;

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
  if (const std::size_t i = find_pending(line); i < mshrs_.size()) {
    ++mshrs_[i].refs;
    ++stats_.mshr_coalesced;
    return Ticket{static_cast<std::uint32_t>(i), true};
  }
  return Ticket{};
}

std::uint64_t TimedMemory::retire(Ticket ticket) {
  PLRUPART_ASSERT_MSG(ticket.valid, "retire of an invalid ticket");
  Mshr& m = mshrs_[ticket.slot];
  PLRUPART_ASSERT(m.refs > 0);
  while (!m.done) {
    PLRUPART_ASSERT_MSG(!idle(), "pending MSHR with no event in flight");
    step();
  }
  --m.refs;
  return m.done_at;
}

void TimedMemory::drain() {
  while (!idle()) step();
}

}  // namespace plrupart::sim
