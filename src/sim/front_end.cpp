#include "sim/front_end.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "plrupart/common/assert.hpp"

namespace plrupart::sim::internal {

FrontEnd::FrontEnd(const std::vector<std::unique_ptr<TraceSource>>& traces,
                   MemoryHierarchy& hierarchy, BusyThreads producers)
    : traces_(traces),
      hierarchy_(hierarchy),
      busy_(std::move(producers)),
      producers_(static_cast<std::uint32_t>(busy_.held())),
      cursors_(traces.size()) {
  PLRUPART_ASSERT(producers_ >= 1 && producers_ <= traces.size());
  rings_.reserve(traces.size());
  for (std::size_t c = 0; c < traces.size(); ++c) {
    rings_.push_back(std::make_unique<Ring>());
  }
  threads_.reserve(producers_);
  try {
    for (std::uint32_t p = 0; p < producers_; ++p) {
      threads_.emplace_back([this, p] { produce(p); });
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
}

FrontEnd::~FrontEnd() { stop_and_join(); }

void FrontEnd::stop_and_join() noexcept {
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads_) t.join();
}

void FrontEnd::produce(std::uint32_t producer) noexcept {
#ifdef __linux__
  // Sleep for the nap asked: Linux's default 50 us timer slack would stretch
  // the 10 us nap below about sixfold, and a 1024-slot ring can run dry in
  // that time. The slack is this thread's own; it ends with the thread.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  while (!stop_.load(std::memory_order_acquire)) {
    bool produced = false;
    for (auto core = producer; core < traces_.size(); core += producers_) {
      Ring& ring = *rings_[core];
      if (ring.failed) continue;
      if (ring.produced - ring.tail_seen > kSlots - kBatch) {
        ring.tail_seen = ring.tail.load(std::memory_order_acquire);
        if (ring.produced - ring.tail_seen > kSlots - kBatch) continue;
      }
      TraceSource& trace = *traces_[core];
      const std::uint64_t head = ring.produced;
      std::uint64_t n = 0;  // slots written
      HitRun run;           // hits not yet in a slot
      const auto put_run = [&] {
        if (run.count < kMinRun) {
          for (std::uint8_t i = 0; i < run.count; ++i) {
            ring.slots[(head + n++) & (kSlots - 1)] =
                OpRecord{.gap_instrs = run.gaps[i], .l1_hit = true};
          }
        } else {
          std::memcpy(static_cast<void*>(&ring.slots[(head + n++) & (kSlots - 1)]), &run,
                      sizeof run);
        }
        run.count = 0;
      };
      try {
        // An op writes at most kMinRun slots (the short stretch of hits
        // before it, then itself), so a batch stays within the kBatch slots
        // the ring has room for; and it writes none only into an unfinished
        // run, so no hit is left out of the batch once the loop ends.
        while (n + kMinRun <= kBatch) {
          const MemOp op = trace.next();
          const bool hit = hierarchy_.access_l1(core, op.addr);
          if (hit && op.gap_instrs <= UINT8_MAX) {
            run.gaps[run.count++] = static_cast<std::uint8_t>(op.gap_instrs);
            if (run.count == kMaxRun) put_run();
            continue;
          }
          if (run.count != 0) put_run();
          ring.slots[(head + n++) & (kSlots - 1)] = OpRecord{.addr = op.addr,
                                                             .gap_instrs = op.gap_instrs,
                                                             .write = op.write,
                                                             .l1_hit = hit};
        }
      } catch (...) {
        ring.error = std::current_exception();
        if (run.count != 0) put_run();
        ring.slots[(head + n++) & (kSlots - 1)] = OpRecord{.failed = true};
        ring.failed = true;
      }
      ring.produced = head + n;
      ring.head.store(ring.produced, std::memory_order_release);
      produced = true;
    }
    // Every owned ring is full (or failed): sleep rather than spin. The
    // consumer takes longer than the nap to drain a full ring's kSlots slots,
    // so the nap does not starve it.
    if (!produced) std::this_thread::sleep_for(std::chrono::microseconds(10));
  }
}

}  // namespace plrupart::sim::internal
