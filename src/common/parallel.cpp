#include "common/parallel.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace plrupart {

std::size_t default_parallelism() noexcept {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

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
