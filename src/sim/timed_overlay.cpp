#include "sim/timed_overlay.hpp"

#include <chrono>
#include <utility>

#include "common/parallel.hpp"

namespace plrupart::sim::internal {

TimedClocks::TimedClocks(const SimConfig& config)
    : memory_(config.timed, config.hierarchy.l2.geometry),
      cores_(config.cores.size()),
      line_shift_(ilog2_exact(config.hierarchy.l2.geometry.line_bytes)),
      l2_hit_cycles_(config.timed.l2_hit_cycles) {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    cores_[i].base_ipc = config.cores[i].base_ipc;
    cores_[i].stall_fraction = config.cores[i].stall_fraction;
  }
}

void TimedClocks::access(const TimedRecord& r) {
  TimedCore& tc = cores_[r.core];
  tc.cycles += (static_cast<double>(r.gap_instrs) + 1.0) / tc.base_ipc;
  if ((r.flags & TimedRecord::kReachedL2) == 0) return;
  // One demand transaction in flight per core: the previous one must
  // retire before the next issues (L1 hits in between already proceeded).
  settle(r.core);
  const auto t_issue = static_cast<std::uint64_t>(tc.cycles);
  const cache::Addr line = r.addr >> line_shift_;
  const bool write = (r.flags & TimedRecord::kWrite) != 0;
  if ((r.flags & TimedRecord::kHit) != 0) {
    const auto tk = memory_.hit(t_issue, line, r.way, write);
    if (tk.valid) {
      // Fill still in flight: this "hit" waits on the fill, not the array.
      tc.outstanding = tk;
      tc.has_outstanding = true;
    } else {
      tc.cycles += static_cast<double>(l2_hit_cycles_) * tc.stall_fraction;
    }
  } else {
    tc.outstanding = memory_.miss(t_issue, line, r.way, write,
                                  (r.flags & TimedRecord::kEvictedValid) != 0,
                                  r.evicted_line);
    tc.has_outstanding = true;
  }
}

void TimedClocks::open_window() {
  for (std::uint32_t i = 0; i < cores_.size(); ++i) settle(i);
  memory_.mark();
  stats_base_ = memory_.stats();
}

void TimedClocks::settle(std::uint32_t core) {
  TimedCore& tc = cores_[core];
  if (!tc.has_outstanding) return;
  const auto done = static_cast<double>(memory_.retire(tc.outstanding));
  tc.has_outstanding = false;
  if (done > tc.cycles) {
    tc.cycles += (done - tc.cycles) * tc.stall_fraction;
  }
}

void TimedClocks::finish(SimResult& out) const {
  out.timing = TimingMode::kTimed;
  out.timed = memory_.stats().delta_since(stats_base_);
}

namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// About one batch's publication interval on the replay thread (64 records
/// take 7-9 us of a 4T_10 job on a 4-vCPU Xeon VM): a helper that keeps up
/// waits between batches without sleeping, and the notify that follows a
/// publication rarely has a sleeper to wake.
constexpr auto kSpin = std::chrono::microseconds(10);

/// The first value of `word` other than `old`: spin for about kSpin, then
/// block until a store and notify change it.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old) noexcept {
  std::uint32_t v = word.load();
  if (v != old) return v;
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  do {
    for (int i = 0; i < 32; ++i) {
      cpu_relax();
      v = word.load();
      if (v != old) return v;
    }
  } while (std::chrono::steady_clock::now() < deadline);
  word.wait(old);
  return word.load();
}

}  // namespace

TimedOverlay::TimedOverlay(const SimConfig& config)
    : clocks_(config), slots_(std::make_unique<TimedRecord[]>(kSlots)) {}

TimedOverlay::~TimedOverlay() {
  if (!helper_.joinable()) return;
  stop_.store(true);
  // Any change of head wakes the helper, and it leaves on seeing stop_.
  head_.store(produced_ + 1);
  head_.notify_one();
  helper_.join();
}

void TimedOverlay::apply_inline() {
  for (; tail_seen_ != produced_; ++tail_seen_) {
    clocks_.apply(slots_[tail_seen_ & (kSlots - 1)]);
  }
}

void TimedOverlay::publish() {
  if (mode_ == Mode::kBuffering) {
    if (produced_ - tail_seen_ > kSlots - kBatch) start_helper();
    return;
  }
  head_.store(produced_);
  head_.notify_one();
  // Room for the next batch, or wait for the helper to make it.
  while (produced_ - tail_seen_ > kSlots - kBatch) {
    tail_seen_ = await_change(tail_, tail_seen_);
  }
}

void TimedOverlay::start_helper() {
  BusyThreads budget = BusyThreads::try_reserve(1);
  if (budget.held() == 0) {
    apply_inline();
    mode_ = Mode::kDirect;
    return;
  }
  head_.store(produced_);
  tail_.store(tail_seen_);
  // The guard lives in the thread's callable: the count drops as it exits.
  helper_ = std::thread([this, held = std::move(budget)]() noexcept { serve(); });
  mode_ = Mode::kHelper;
  publish();
}

void TimedOverlay::drain() {
  if (mode_ != Mode::kHelper) {
    apply_inline();
    return;
  }
  if (tail_seen_ != produced_) {
    head_.store(produced_);
    head_.notify_one();
    do {
      tail_seen_ = await_change(tail_, tail_seen_);
    } while (tail_seen_ != produced_);
  }
  if (error_) std::rethrow_exception(error_);
}

void TimedOverlay::serve() noexcept {
  std::uint32_t pos = tail_.load();
  for (;;) {
    const std::uint32_t head = await_change(head_, pos);
    if (stop_.load()) return;
    while (pos != head) {
      const std::uint32_t end = head - pos > kBatch ? pos + kBatch : head;
      if (!error_) {
        try {
          for (std::uint32_t i = pos; i != end; ++i) clocks_.apply(slots_[i & (kSlots - 1)]);
        } catch (...) {
          error_ = std::current_exception();
        }
      }
      pos = end;
      tail_.store(pos);
      tail_.notify_one();
    }
  }
}

}  // namespace plrupart::sim::internal
