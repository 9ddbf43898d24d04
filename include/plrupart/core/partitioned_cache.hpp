// PartitionedCacheSystem: the library's main entry point.
//
// Bundles the shared L2, per-core profiling logic (ATD + (e)SDH), the interval
// controller and the enforcement wiring into one object the simulator (or an
// application) drives with time-stamped accesses.
//
// Configurations are named with the paper's acronym scheme:
//   <enforcement>-<esdh scale><replacement>
//   C-L     owner counters + LRU           (the paper's baseline)
//   M-L     way masks + LRU
//   M-1.0N  way masks + NRU, eSDH scale 1.0
//   M-0.75N way masks + NRU, eSDH scale 0.75
//   M-0.5N  way masks + NRU, eSDH scale 0.5
//   M-BT    way masks + binary-tree pseudo-LRU
// plus NOPART-L / NOPART-N / NOPART-BT / NOPART-R for unpartitioned caches.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/core/controller.hpp"
#include "plrupart/core/ipc_policy.hpp"
#include "plrupart/core/min_misses.hpp"
#include "plrupart/core/profiler.hpp"
#include "plrupart/core/qos.hpp"

namespace plrupart::core {

enum class PolicyKind : std::uint8_t {
  kMinMissesOptimal,
  kMinMissesGreedy,
  kMinMissesLookahead,
  kMinMissesTree,  ///< restricted to power-of-two allocations (strict BT)
  kFair,
  kQos,
  kIpc,  ///< IPC-objective DP (extension; needs CpaConfig::ipc_models)
  kStaticEven,
};

struct PLRUPART_EXPORT CpaConfig {
  cache::Geometry geometry = cache::paper_l2_geometry();
  std::uint32_t num_cores = 2;
  cache::ReplacementKind replacement = cache::ReplacementKind::kLru;

  /// kNone disables partitioning entirely (no ATDs, no controller).
  cache::EnforcementMode enforcement = cache::EnforcementMode::kWayMasks;

  ProfilerKind profiler = ProfilerKind::kAuto;
  double esdh_scale = 1.0;                       // NRU profiling only
  NruUpdateMode nru_update = NruUpdateMode::kRange;
  PolicyKind policy = PolicyKind::kMinMissesOptimal;
  std::optional<QosTarget> qos;                  // PolicyKind::kQos only
  std::vector<IpcModel> ipc_models;              // PolicyKind::kIpc: one per core
  IpcObjective ipc_objective = IpcObjective::kThroughput;
  std::uint64_t interval_cycles = 1'000'000;     // paper: 1M cycles
  std::uint32_t sampling_ratio = 32;             // paper: 1 in 32 sets
  /// Repartition damping (see IntervalController): a new partition is applied
  /// only when its predicted misses beat the standing one by this fraction.
  double repartition_hysteresis = 0.05;
  /// Strict BT enforcement: round partitions to power-of-two blocks
  /// expressible with up/down force vectors (ablation; default mask-guided).
  bool bt_strict_pow2 = false;
  std::uint64_t seed = 0x5eed;

  [[nodiscard]] bool partitioned() const noexcept {
    return enforcement != cache::EnforcementMode::kNone;
  }

  /// Parse a paper acronym (see file header). Throws InvariantError on
  /// unknown names.
  [[nodiscard]] static CpaConfig from_acronym(const std::string& name,
                                              std::uint32_t num_cores,
                                              cache::Geometry geometry);

  /// Every acronym from_acronym accepts, in the paper's order.
  [[nodiscard]] static const std::vector<std::string>& known_acronyms();

  [[nodiscard]] std::string acronym() const;
};

class PLRUPART_EXPORT PartitionedCacheSystem {
 public:
  explicit PartitionedCacheSystem(CpaConfig config);

  /// One L2 access by `core` at byte address `addr`, at time `now_cycles`.
  /// Probes the core's ATD, fires the interval controller when a boundary
  /// passed, then performs the real access.
  cache::AccessOutcome access(cache::CoreId core, cache::Addr addr, bool write,
                              std::uint64_t now_cycles);

  [[nodiscard]] const CpaConfig& config() const noexcept { return config_; }
  [[nodiscard]] cache::SetAssocCache& l2() noexcept { return *l2_; }
  [[nodiscard]] const cache::SetAssocCache& l2() const noexcept { return *l2_; }
  [[nodiscard]] const Profiler& profiler(cache::CoreId core) const;
  [[nodiscard]] const IntervalController* controller() const noexcept {
    return controller_.get();
  }
  /// Mutable profiler/controller access, for harnesses that drive the L2's
  /// layers one by one (bench/e2e's per-layer run).
  [[nodiscard]] Profiler& profiler_mut(cache::CoreId core);
  [[nodiscard]] IntervalController* controller_mut() noexcept {
    return controller_.get();
  }
  [[nodiscard]] Partition current_partition() const;

  /// Hardware-cost summary of the configuration (storage bits; see
  /// power/complexity.hpp for the event costs).
  [[nodiscard]] std::uint64_t profiling_storage_bits(std::uint32_t tag_bits) const;

  void reset();

 private:
  void apply_partition(const Partition& p);
  [[nodiscard]] std::unique_ptr<PartitionPolicy> make_partition_policy() const;

  CpaConfig config_;
  std::unique_ptr<cache::SetAssocCache> l2_;
  std::vector<std::unique_ptr<Profiler>> profilers_;
  std::unique_ptr<IntervalController> controller_;
};

}  // namespace plrupart::core
