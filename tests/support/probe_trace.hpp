// A TraceSource wrapper for the pipelined-simulator tests: it counts the ops
// it hands out, can fail at a chosen op, and remembers
// every thread that called next().
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "plrupart/sim/mem_op.hpp"

namespace plrupart::testing {

/// What ProbeTrace throws at its failing op.
class ProbeTraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ProbeTrace final : public sim::TraceSource {
 public:
  static constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

  /// Throws ProbeTraceError instead of returning op `throw_at` (0-based).
  explicit ProbeTrace(std::unique_ptr<sim::TraceSource> inner,
                      std::uint64_t throw_at = kNever)
      : inner_(std::move(inner)), throw_at_(throw_at) {}

  sim::MemOp next() override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      threads_.insert(std::this_thread::get_id());
    }
    const std::uint64_t i = calls_++;
    if (i == throw_at_) {
      throw ProbeTraceError(name() + " failed at op " + std::to_string(i));
    }
    return inner_->next();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  /// Ops handed out (read after the run has joined its threads).
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::set<std::thread::id> threads() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

 private:
  std::unique_ptr<sim::TraceSource> inner_;
  std::uint64_t throw_at_;
  std::uint64_t calls_ = 0;
  mutable std::mutex mutex_;
  std::set<std::thread::id> threads_;
};

}  // namespace plrupart::testing
