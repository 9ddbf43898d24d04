// Minimal fork-join parallelism for running independent simulations.
//
// Each simulation is single-threaded and deterministic; the sweep engine and
// benchmark harnesses parallelize *across* (workload, configuration) pairs.
// Scheduling is a dynamic work queue — workers pull the next unclaimed index
// off an atomic ticket counter — so the assignment of indices to threads (and
// the completion order) is nondeterministic. Callers that need deterministic
// output must key results by index, never by completion order; the sweep
// executor does exactly that.
//
// BusyThreads counts the simulation threads busy in this process: replay
// loops, front-end producers and timed-overlay helpers. A helper is the one
// optional thread, and it starts only while the count is below
// default_parallelism(), so a sweep that already fills the host runs its
// overlays inline instead of oversubscribing it.
#pragma once

#include "plrupart/export.hpp"

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace plrupart {

/// Number of worker threads to use by default (>= 1): the CPUs this process
/// may run on (its sched_getaffinity mask), or hardware concurrency where the
/// mask cannot be read. A cgroup CPU quota is not consulted.
[[nodiscard]] PLRUPART_EXPORT std::size_t default_parallelism() noexcept;

/// One reservation on the process-wide count of busy simulation threads,
/// held for the guard's lifetime.
class PLRUPART_EXPORT BusyThreads {
 public:
  /// Count `n` threads busy, whatever the count already is.
  explicit BusyThreads(std::size_t n) noexcept;
  /// Count one more thread only if fewer than default_parallelism() are busy;
  /// otherwise return an empty guard.
  [[nodiscard]] static BusyThreads try_one() noexcept;
  BusyThreads(BusyThreads&& other) noexcept;
  BusyThreads& operator=(BusyThreads&&) = delete;
  ~BusyThreads();

  /// Threads this guard holds (0 for an empty try_one()).
  [[nodiscard]] std::size_t held() const noexcept { return held_; }

 private:
  struct Adopt {};
  BusyThreads(Adopt /*counted*/, std::size_t n) noexcept : held_(n) {}

  std::size_t held_;
};

/// Run body(i) for i in [0, n) across up to `threads` workers. The first
/// exception thrown by any body is rethrown on the calling thread after all
/// workers join. body must be safe to call concurrently for distinct i.
///
/// Templated on the callable so the per-index dispatch on the hot fan-out
/// path is a direct (inlinable) call, not a std::function indirection.
template <typename F>
inline void parallel_for(std::size_t n, F&& body, std::size_t threads = 0) {
  if (n == 0) return;
  if (threads == 0) threads = default_parallelism();
  if (threads > n) threads = n;

  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        body(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace plrupart
