// IPC-objective partition selection (extension, after FlexDCP [Moreto et
// al.], which the paper cites as the QoS framework built on these CPAs).
//
// MinMisses optimizes a proxy — total predicted misses — but misses are not
// worth the same cycles to every thread: a pointer chaser exposes the full
// memory latency while a streaming thread hides most of it. This policy
// converts each thread's miss curve into a predicted-IPC curve through a
// small analytical model and optimizes a performance metric directly (a
// CpaConfig::decide once bound to one IpcModel per core and an objective):
//
//   kThroughput      maximize  sum_i IPC_i(w_i)
//   kWeightedSpeedup maximize  sum_i IPC_i(w_i) / IPC_i(A)
//   kHarmonicMean    maximize  N / sum_i (IPC_i(A) / IPC_i(w_i))
//
// All three are separable per thread, so the exact DP min_cost_partition
// applies.
#pragma once

#include "plrupart/export.hpp"

#include <string>
#include <vector>

#include "plrupart/core/partition.hpp"

namespace plrupart::core {

/// Per-thread analytical timing model: mirrors sim::CoreParams plus the
/// trace-dependent density of L2 accesses.
struct PLRUPART_EXPORT IpcModel {
  double instr_per_l2_access = 12.0;  ///< committed instructions per L2 access
  double base_ipc = 2.0;
  double l2_hit_penalty = 11.0;
  double mem_penalty = 250.0;
  double stall_fraction = 0.7;

  void validate() const;

  /// Predicted IPC of the thread when it owns `ways` ways, given its
  /// profiled miss curve (in profiled-access units; units cancel).
  [[nodiscard]] double predicted_ipc(const MissCurve& curve, std::uint32_t ways) const;
};

enum class IpcObjective : std::uint8_t {
  kThroughput,
  kWeightedSpeedup,
  kHarmonicMean,
};

[[nodiscard]] PLRUPART_EXPORT std::string to_string(IpcObjective o);

/// The partition optimizing `objective` under one model per core, in core
/// order (models.size() must equal curves.size()).
[[nodiscard]] PLRUPART_EXPORT Partition ipc_partition(
    const std::vector<MissCurve>& curves, std::uint32_t total_ways,
    const std::vector<IpcModel>& models, IpcObjective objective);

}  // namespace plrupart::core
