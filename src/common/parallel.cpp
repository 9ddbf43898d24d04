#include "common/parallel.hpp"

namespace plrupart {

namespace {

std::atomic<std::size_t> g_busy{0};

}  // namespace

BusyThreads::BusyThreads(std::size_t n) noexcept : held_(n) {
  g_busy.fetch_add(n);
}

BusyThreads BusyThreads::try_one() noexcept {
  const std::size_t limit = default_parallelism();
  std::size_t busy = g_busy.load();
  while (busy < limit) {
    if (g_busy.compare_exchange_weak(busy, busy + 1)) {
      return {Adopt{}, 1};
    }
  }
  return {Adopt{}, 0};
}

BusyThreads::BusyThreads(BusyThreads&& other) noexcept : held_(other.held_) {
  other.held_ = 0;
}

BusyThreads::~BusyThreads() { g_busy.fetch_sub(held_); }

}  // namespace plrupart
