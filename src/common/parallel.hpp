// Minimal fork-join parallelism for running independent simulations.
//
// Each simulation is single-threaded and deterministic; the sweep engine and
// benchmark harnesses parallelize *across* (workload, configuration) pairs.
// Scheduling is a dynamic work queue — workers pull the next unclaimed index
// off an atomic ticket counter — so the assignment of indices to threads (and
// the completion order) is nondeterministic. Callers that need deterministic
// output must key results by index, never by completion order; the sweep
// executor does exactly that.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace plrupart {

/// Number of worker threads to use by default (hardware concurrency, >= 1).
[[nodiscard]] inline std::size_t default_parallelism() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

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
