// Analytical core timing model.
//
// Substitutes the paper's out-of-order Turandot cores with cycle accounting:
// non-memory instructions retire at a sustained base IPC; a memory operation
// adds a stall charge when it misses a cache level. `stall_fraction` scales
// the raw miss penalty down to the portion an out-of-order window cannot hide
// (1.0 = fully exposed pointer chase, small values = high MLP streaming).
#pragma once

#include "plrupart/export.hpp"

#include <array>
#include <cstdint>

#include "plrupart/common/assert.hpp"

namespace plrupart::sim {

/// Where an access was satisfied.
enum class AccessLevel : std::uint8_t { kL1, kL2, kMemory };

struct PLRUPART_EXPORT CoreParams {
  double base_ipc = 2.0;        ///< sustained non-memory IPC of the 8-wide core
  double l2_hit_penalty = 11;   ///< cycles: L1 miss that hits L2 (paper Table II)
  double mem_penalty = 250;     ///< cycles: L2 miss to memory (paper Table II)
  double stall_fraction = 0.7;  ///< exposed fraction of miss penalties

  void validate() const {
    PLRUPART_ASSERT(base_ipc > 0.0);
    PLRUPART_ASSERT(l2_hit_penalty >= 0.0 && mem_penalty >= 0.0);
    PLRUPART_ASSERT(stall_fraction >= 0.0 && stall_fraction <= 1.0);
  }
};

class PLRUPART_EXPORT CoreModel {
 public:
  /// Gaps below this are charged from a table; larger ones divide.
  static constexpr std::uint32_t kGapTableSize = 32;

  explicit CoreModel(const CoreParams& params)
      : params_(params),
        op_cycles_(1.0 / params.base_ipc),
        l2_stall_cycles_(params.l2_hit_penalty * params.stall_fraction),
        mem_stall_cycles_(params.mem_penalty * params.stall_fraction) {
    params.validate();
    for (std::uint32_t g = 0; g < kGapTableSize; ++g)
      gap_cycles_[g] = static_cast<double>(g) / params.base_ipc;
  }

  /// Commit `n` non-memory instructions.
  void commit_gap(std::uint32_t n) noexcept {
    cycles_ += n < kGapTableSize ? gap_cycles_[n]
                                 : static_cast<double>(n) / params_.base_ipc;
    instructions_ += n;
  }

  /// Commit one memory instruction satisfied at `level`.
  void commit_mem(AccessLevel level) noexcept {
    cycles_ += op_cycles_;
    switch (level) {
      case AccessLevel::kL1:
        break;  // pipelined L1 hit
      case AccessLevel::kL2:
        cycles_ += l2_stall_cycles_;
        break;
      case AccessLevel::kMemory:
        cycles_ += mem_stall_cycles_;
        break;
    }
    ++instructions_;
  }

  [[nodiscard]] double cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t instructions() const noexcept { return instructions_; }
  [[nodiscard]] double ipc() const noexcept {
    return cycles_ > 0.0 ? static_cast<double>(instructions_) / cycles_ : 0.0;
  }
  [[nodiscard]] const CoreParams& params() const noexcept { return params_; }

 private:
  CoreParams params_;
  // commit_mem's and commit_gap's charges, computed once from params_: the
  // same doubles as computing them per op, without a division on every op.
  double op_cycles_;         ///< 1 / base_ipc
  double l2_stall_cycles_;   ///< l2_hit_penalty * stall_fraction
  double mem_stall_cycles_;  ///< mem_penalty * stall_fraction
  double cycles_ = 0.0;
  std::uint64_t instructions_ = 0;
  std::array<double, kGapTableSize> gap_cycles_{};  ///< [g] = g / base_ipc
};

}  // namespace plrupart::sim
