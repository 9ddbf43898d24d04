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
thread_local bool t_counted = false;  ///< a live guard counts this thread

}  // namespace

BusyThreads::BusyThreads(std::size_t n) noexcept : held_(n), marks_thread_(false) {
  g_busy.fetch_add(n);
}

BusyThreads BusyThreads::try_reserve(std::size_t most, std::size_t spare) noexcept {
  const std::size_t limit = default_parallelism();
  std::size_t busy = g_busy.load();
  for (;;) {
    const std::size_t free = busy + spare < limit ? limit - busy - spare : 0;
    const std::size_t n = most < free ? most : free;
    if (n == 0) return {Adopt{}, 0};
    if (g_busy.compare_exchange_weak(busy, busy + n)) return {Adopt{}, n};
  }
}

BusyThreads BusyThreads::this_thread() noexcept {
  if (t_counted) return {Adopt{}, 0};
  g_busy.fetch_add(1);
  t_counted = true;
  return {Adopt{}, 1, true};
}

BusyThreads BusyThreads::worker_of(const BusyThreads& pool) noexcept {
  if (t_counted || pool.held() == 0) return {Adopt{}, 0};
  t_counted = true;
  return {Adopt{}, 0, true};
}

BusyThreads::BusyThreads(BusyThreads&& other) noexcept
    : held_(other.held_), marks_thread_(other.marks_thread_) {
  other.held_ = 0;
  other.marks_thread_ = false;
}

BusyThreads::~BusyThreads() {
  g_busy.fetch_sub(held_);
  if (marks_thread_) t_counted = false;
}

void BusyThreads::shrink_to(std::size_t n) noexcept {
  if (n >= held_) return;
  g_busy.fetch_sub(held_ - n);
  held_ = n;
}

}  // namespace plrupart
