// PartitionedCacheSystem: the library's main entry point.
//
// Bundles the shared L2 and the interval controller (which owns the per-core
// ATD + (e)SDH profilers and enforces on that L2) into one copyable value the
// simulator (or an application) drives with time-stamped accesses.
//
// Configurations are named with the paper's acronym scheme,
// <enforcement>-<esdh scale><replacement> (C-L, M-0.75N, M-BT, ...), plus
// NOPART-<replacement> for unpartitioned caches. One table in
// partitioned_cache.cpp lists every name (`plrupart --list-configs`).
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/core/controller.hpp"
#include "plrupart/core/min_misses.hpp"
#include "plrupart/core/profiler.hpp"

namespace plrupart::core {

struct PLRUPART_EXPORT CpaConfig {
  cache::Geometry geometry = cache::paper_l2_geometry();
  std::uint32_t num_cores = 2;
  cache::ReplacementKind replacement = cache::ReplacementKind::kLru;

  /// kNone disables partitioning entirely (no ATDs, no controller).
  cache::EnforcementMode enforcement = cache::EnforcementMode::kWayMasks;

  double esdh_scale = 1.0;                       // NRU profiling only
  NruUpdateMode nru_update = NruUpdateMode::kRange;
  /// The partition function called at each interval boundary: the paper's
  /// MinMisses, or any other (min_misses.hpp, fair.hpp, qos.hpp,
  /// ipc_policy.hpp, static_policy.hpp), bound to its inputs by a lambda.
  IntervalController::DecideFn decide = min_misses_optimal;
  std::uint64_t interval_cycles = 1'000'000;     // paper: 1M cycles
  std::uint32_t sampling_ratio = 32;             // paper: 1 in 32 sets
  /// Repartition damping (see IntervalController): a new partition is applied
  /// only when its predicted misses beat the standing one by this fraction.
  double repartition_hysteresis = 0.05;
  /// Strict BT enforcement: round partitions to power-of-two blocks
  /// expressible with up/down force vectors (ablation; default mask-guided).
  bool bt_strict_pow2 = false;
  /// Unread; bench/e2e/harness/e2e_harness.cpp:175 and :197 still name it.
  std::uint64_t seed = 0x5eed;

  [[nodiscard]] bool partitioned() const noexcept {
    return enforcement != cache::EnforcementMode::kNone;
  }

  /// Parse an acronym of the table. Throws InvariantError on unknown names.
  [[nodiscard]] static CpaConfig from_acronym(const std::string& name,
                                              std::uint32_t num_cores,
                                              cache::Geometry geometry);

  /// Every acronym from_acronym accepts, in the paper's order.
  [[nodiscard]] static const std::vector<std::string>& known_acronyms();

  /// What the acronym `name` configures, in words. Throws InvariantError on
  /// unknown names.
  [[nodiscard]] static std::string describe(const std::string& name);

  /// The table's name for this configuration; a partitioned NRU cache at a
  /// scale no row names reads like M-0.375N.
  [[nodiscard]] std::string acronym() const;
};

class PLRUPART_EXPORT PartitionedCacheSystem {
 public:
  explicit PartitionedCacheSystem(CpaConfig config);
  // Copies and moves re-seat the controller on the new object's L2.
  PartitionedCacheSystem(const PartitionedCacheSystem& other);
  PartitionedCacheSystem(PartitionedCacheSystem&& other) noexcept;
  PartitionedCacheSystem& operator=(PartitionedCacheSystem other) noexcept;

  /// One L2 access by `core` at byte address `addr`, at time `now_cycles`.
  /// Probes the core's ATD, fires the interval controller when a boundary
  /// passed, then performs the real access.
  cache::AccessOutcome access(cache::CoreId core, cache::Addr addr, bool write,
                              std::uint64_t now_cycles);

  [[nodiscard]] const CpaConfig& config() const noexcept { return config_; }
  [[nodiscard]] cache::SetAssocCache& l2() noexcept { return l2_; }
  [[nodiscard]] const cache::SetAssocCache& l2() const noexcept { return l2_; }
  [[nodiscard]] const Profiler& profiler(cache::CoreId core) const;
  [[nodiscard]] const IntervalController* controller() const noexcept {
    return controller_ ? &*controller_ : nullptr;
  }
  /// Mutable profiler/controller access, for harnesses that drive the L2's
  /// layers one by one (bench/e2e's per-layer run).
  [[nodiscard]] Profiler& profiler_mut(cache::CoreId core);
  [[nodiscard]] IntervalController* controller_mut() noexcept {
    return controller_ ? &*controller_ : nullptr;
  }
  [[nodiscard]] Partition current_partition() const;

  /// Hardware-cost summary of the configuration (storage bits; see
  /// power/complexity.hpp for the event costs).
  [[nodiscard]] std::uint64_t profiling_storage_bits(std::uint32_t tag_bits) const;

 private:
  CpaConfig config_;
  cache::SetAssocCache l2_;
  std::optional<IntervalController> controller_;  ///< empty when unpartitioned
};

}  // namespace plrupart::core
