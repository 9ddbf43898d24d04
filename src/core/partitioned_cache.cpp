#include "plrupart/core/partitioned_cache.hpp"

#include <sstream>

#include "plrupart/common/rng.hpp"
#include "plrupart/core/fair.hpp"
#include "plrupart/core/static_policy.hpp"
#include "plrupart/core/tree_rounding.hpp"

namespace plrupart::core {

CpaConfig CpaConfig::from_acronym(const std::string& name, std::uint32_t num_cores,
                                  cache::Geometry geometry) {
  CpaConfig c;
  c.geometry = geometry;
  c.num_cores = num_cores;
  if (name == "C-L") {
    c.replacement = cache::ReplacementKind::kLru;
    c.enforcement = cache::EnforcementMode::kOwnerCounters;
  } else if (name == "M-L") {
    c.replacement = cache::ReplacementKind::kLru;
    c.enforcement = cache::EnforcementMode::kWayMasks;
  } else if (name == "M-1.0N" || name == "M-0.75N" || name == "M-0.5N") {
    c.replacement = cache::ReplacementKind::kNru;
    c.enforcement = cache::EnforcementMode::kWayMasks;
    c.esdh_scale = name == "M-1.0N" ? 1.0 : (name == "M-0.75N" ? 0.75 : 0.5);
  } else if (name == "M-BT") {
    c.replacement = cache::ReplacementKind::kTreePlru;
    c.enforcement = cache::EnforcementMode::kWayMasks;
  } else if (name == "M-RRIP") {
    c.replacement = cache::ReplacementKind::kSrrip;
    c.enforcement = cache::EnforcementMode::kWayMasks;
  } else if (name == "NOPART-RRIP") {
    c.replacement = cache::ReplacementKind::kSrrip;
    c.enforcement = cache::EnforcementMode::kNone;
  } else if (name == "NOPART-L") {
    c.replacement = cache::ReplacementKind::kLru;
    c.enforcement = cache::EnforcementMode::kNone;
  } else if (name == "NOPART-N") {
    c.replacement = cache::ReplacementKind::kNru;
    c.enforcement = cache::EnforcementMode::kNone;
  } else if (name == "NOPART-BT") {
    c.replacement = cache::ReplacementKind::kTreePlru;
    c.enforcement = cache::EnforcementMode::kNone;
  } else if (name == "NOPART-R") {
    c.replacement = cache::ReplacementKind::kRandom;
    c.enforcement = cache::EnforcementMode::kNone;
  } else {
    PLRUPART_ASSERT_MSG(false, "unknown configuration acronym: " + name);
  }
  return c;
}

const std::vector<std::string>& CpaConfig::known_acronyms() {
  static const std::vector<std::string> names = {
      "C-L",      "M-L",      "M-1.0N",    "M-0.75N",  "M-0.5N",      "M-BT",
      "M-RRIP",   "NOPART-L", "NOPART-N",  "NOPART-BT", "NOPART-R",   "NOPART-RRIP"};
  return names;
}

std::string CpaConfig::acronym() const {
  if (!partitioned()) {
    switch (replacement) {
      case cache::ReplacementKind::kLru:
        return "NOPART-L";
      case cache::ReplacementKind::kNru:
        return "NOPART-N";
      case cache::ReplacementKind::kTreePlru:
        return "NOPART-BT";
      case cache::ReplacementKind::kRandom:
        return "NOPART-R";
      case cache::ReplacementKind::kSrrip:
        return "NOPART-RRIP";
    }
  }
  std::ostringstream os;
  os << (enforcement == cache::EnforcementMode::kOwnerCounters ? 'C' : 'M') << '-';
  switch (replacement) {
    case cache::ReplacementKind::kLru:
      os << 'L';
      break;
    case cache::ReplacementKind::kNru: {
      std::ostringstream scale;
      scale << esdh_scale;
      std::string s = scale.str();
      if (s.find('.') == std::string::npos) s += ".0";  // "1" -> "1.0"
      os << s << 'N';
      break;
    }
    case cache::ReplacementKind::kTreePlru:
      os << "BT";
      break;
    case cache::ReplacementKind::kRandom:
      os << 'R';
      break;
    case cache::ReplacementKind::kSrrip:
      os << "RRIP";
      break;
  }
  return os.str();
}

PartitionedCacheSystem::PartitionedCacheSystem(CpaConfig config)
    : config_(std::move(config)),
      // The geometry is validated before the L2 derives its shape from it.
      l2_((config_.geometry.validate(), config_.geometry), config_.replacement,
          config_.num_cores, config_.enforcement, config_.seed) {
  PLRUPART_ASSERT_MSG(config_.num_cores <= config_.geometry.associativity,
                      "cannot give every core a way");
  if (!config_.partitioned()) return;
  std::vector<Profiler> profilers;
  profilers.reserve(config_.num_cores);
  for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
    profilers.emplace_back(config_.geometry, profiler_atd_kind(config_.replacement),
                           config_.sampling_ratio, derive_seed(config_.seed, i),
                           config_.esdh_scale, config_.nru_update);
  }
  controller_.emplace(config_.interval_cycles, make_partition_policy(),
                      std::move(profilers), l2_, config_.repartition_hysteresis,
                      config_.bt_strict_pow2);
}

IntervalController::DecideFn PartitionedCacheSystem::make_partition_policy() const {
  switch (config_.policy) {
    case PolicyKind::kMinMissesOptimal:
      return min_misses_optimal;
    case PolicyKind::kMinMissesGreedy:
      return min_misses_greedy;
    case PolicyKind::kMinMissesLookahead:
      return min_misses_lookahead;
    case PolicyKind::kMinMissesTree:
      return min_misses_tree;
    case PolicyKind::kFair:
      return fair_partition;
    case PolicyKind::kQos: {
      PLRUPART_ASSERT_MSG(config_.qos.has_value(), "QoS policy needs a QosTarget");
      PLRUPART_ASSERT(config_.qos->factor >= 1.0);
      return [target = *config_.qos](const std::vector<MissCurve>& curves,
                                     std::uint32_t total_ways) {
        return qos_partition(curves, total_ways, target);
      };
    }
    case PolicyKind::kIpc: {
      PLRUPART_ASSERT_MSG(config_.ipc_models.size() == config_.num_cores,
                          "IPC policy needs one IpcModel per core");
      for (const auto& m : config_.ipc_models) m.validate();
      return [models = config_.ipc_models, objective = config_.ipc_objective](
                 const std::vector<MissCurve>& curves, std::uint32_t total_ways) {
        return ipc_partition(curves, total_ways, models, objective);
      };
    }
    case PolicyKind::kStaticEven:
      return [](const std::vector<MissCurve>& curves, std::uint32_t total_ways) {
        return even_split(static_cast<std::uint32_t>(curves.size()), total_ways);
      };
  }
  PLRUPART_ASSERT_MSG(false, "unknown policy kind");
  return nullptr;
}

PartitionedCacheSystem::PartitionedCacheSystem(const PartitionedCacheSystem& other)
    : config_(other.config_), l2_(other.l2_), controller_(other.controller_) {
  if (controller_) controller_->l2_ = &l2_;
}

PartitionedCacheSystem::PartitionedCacheSystem(PartitionedCacheSystem&& other) noexcept
    : config_(std::move(other.config_)),
      l2_(std::move(other.l2_)),
      controller_(std::move(other.controller_)) {
  if (controller_) controller_->l2_ = &l2_;
}

PartitionedCacheSystem& PartitionedCacheSystem::operator=(
    PartitionedCacheSystem other) noexcept {
  config_ = std::move(other.config_);
  l2_ = std::move(other.l2_);
  controller_ = std::move(other.controller_);
  if (controller_) controller_->l2_ = &l2_;
  return *this;
}

cache::AccessOutcome PartitionedCacheSystem::access(cache::CoreId core, cache::Addr addr,
                                                    bool write, std::uint64_t now_cycles) {
  PLRUPART_ASSERT(core < config_.num_cores);
  if (controller_) {
    controller_->profiler_mut(core).record_access(config_.geometry.line_addr(addr));
    controller_->tick(now_cycles);
  }
  return l2_.access(core, addr, write);
}

const Profiler& PartitionedCacheSystem::profiler(cache::CoreId core) const {
  PLRUPART_ASSERT(controller_.has_value());
  PLRUPART_ASSERT(core < config_.num_cores);
  return controller_->profilers()[core];
}

Profiler& PartitionedCacheSystem::profiler_mut(cache::CoreId core) {
  PLRUPART_ASSERT(controller_.has_value());
  return controller_->profiler_mut(core);
}

Partition PartitionedCacheSystem::current_partition() const {
  if (controller_) return controller_->current();
  // Unpartitioned: every core can use the whole cache.
  return Partition(config_.num_cores, config_.geometry.associativity);
}

std::uint64_t PartitionedCacheSystem::profiling_storage_bits(std::uint32_t tag_bits) const {
  std::uint64_t bits = 0;
  if (!controller_) return bits;
  for (const Profiler& p : controller_->profilers()) {
    bits += p.atd().storage_bits(tag_bits);
    // SDH registers: A+1 counters; 32 bits each is the sizing used in [22].
    bits += static_cast<std::uint64_t>(config_.geometry.associativity + 1) * 32;
  }
  return bits;
}

}  // namespace plrupart::core
