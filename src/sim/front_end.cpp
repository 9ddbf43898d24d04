#include "sim/front_end.hpp"

#include <chrono>
#include <string>

#include "plrupart/common/assert.hpp"

namespace plrupart::sim::internal {

FrontEnd::FrontEnd(const std::vector<std::unique_ptr<TraceSource>>& traces,
                   MemoryHierarchy& hierarchy, std::uint32_t producers,
                   const FaultPlan* faults)
    : traces_(traces),
      hierarchy_(hierarchy),
      producers_(producers),
      faults_(faults != nullptr && faults->armed(FaultSite::kWorker) ? faults : nullptr),
      cursors_(traces.size()),
      busy_(producers) {
  PLRUPART_ASSERT(producers >= 1 && producers <= traces.size());
  rings_.reserve(traces.size());
  for (std::size_t c = 0; c < traces.size(); ++c) {
    rings_.push_back(std::make_unique<Ring>());
  }
  threads_.reserve(producers);
  try {
    for (std::uint32_t p = 0; p < producers; ++p) {
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
      std::uint64_t n = 0;
      try {
        for (; n < kBatch; ++n) {
          const std::uint64_t index = head + n;
          if (faults_ != nullptr && faults_->should_fire(FaultSite::kWorker, index, core)) {
            faults_->maybe_throw(FaultSite::kWorker, index, core,
                                 "front-end producer of core " + std::to_string(core));
          }
          const MemOp op = trace.next();
          ring.slots[index & (kSlots - 1)] =
              OpRecord{.addr = op.addr,
                       .gap_instrs = op.gap_instrs,
                       .write = op.write,
                       .l1_hit = hierarchy_.access_l1(core, op.addr)};
        }
      } catch (...) {
        ring.error = std::current_exception();
        ring.slots[(head + n) & (kSlots - 1)] = OpRecord{.failed = true};
        ++n;
        ring.failed = true;
      }
      ring.produced = head + n;
      ring.head.store(ring.produced, std::memory_order_release);
      produced = true;
    }
    // Every owned ring is full (or failed): sleep rather than spin. A full
    // ring holds thousands of ops, far more than the consumer drains in one
    // nap, so the nap never starves it.
    if (!produced) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

}  // namespace plrupart::sim::internal
