#include "plrupart/core/partitioned_cache.hpp"

#include <sstream>
#include <string_view>

namespace plrupart::core {

namespace {

using cache::EnforcementMode;
using cache::ReplacementKind;

/// One named L2 configuration.
struct ConfigRow {
  const char* name;
  ReplacementKind replacement;
  EnforcementMode enforcement;
  double esdh_scale;
  const char* description;
};

// Every configuration, in the paper's order. The NOPART-* rows also give each
// replacement's letters for names no row holds.
constexpr ConfigRow kConfigs[] = {
    {"C-L", ReplacementKind::kLru, EnforcementMode::kOwnerCounters, 1.0,
     "owner counters + LRU (the paper's baseline CPA)"},
    {"M-L", ReplacementKind::kLru, EnforcementMode::kWayMasks, 1.0, "way masks + LRU"},
    {"M-1.0N", ReplacementKind::kNru, EnforcementMode::kWayMasks, 1.0,
     "way masks + NRU, eSDH scale 1.0"},
    {"M-0.75N", ReplacementKind::kNru, EnforcementMode::kWayMasks, 0.75,
     "way masks + NRU, eSDH scale 0.75"},
    {"M-0.5N", ReplacementKind::kNru, EnforcementMode::kWayMasks, 0.5,
     "way masks + NRU, eSDH scale 0.5"},
    {"M-BT", ReplacementKind::kTreePlru, EnforcementMode::kWayMasks, 1.0,
     "way masks + binary-tree pseudo-LRU (ID-decoder profiling)"},
    {"M-RRIP", ReplacementKind::kSrrip, EnforcementMode::kWayMasks, 1.0,
     "way masks + SRRIP (extension)"},
    {"NOPART-L", ReplacementKind::kLru, EnforcementMode::kNone, 1.0, "unpartitioned LRU"},
    {"NOPART-N", ReplacementKind::kNru, EnforcementMode::kNone, 1.0, "unpartitioned NRU"},
    {"NOPART-BT", ReplacementKind::kTreePlru, EnforcementMode::kNone, 1.0,
     "unpartitioned binary-tree pseudo-LRU"},
    {"NOPART-RRIP", ReplacementKind::kSrrip, EnforcementMode::kNone, 1.0,
     "unpartitioned SRRIP (extension)"},
};

const ConfigRow& row_named(const std::string& name) {
  for (const ConfigRow& r : kConfigs)
    if (name == r.name) return r;
  throw InvariantError("unknown configuration acronym: " + name);
}

}  // namespace

CpaConfig CpaConfig::from_acronym(const std::string& name, std::uint32_t num_cores,
                                  cache::Geometry geometry) {
  const ConfigRow& r = row_named(name);
  CpaConfig c;
  c.geometry = geometry;
  c.num_cores = num_cores;
  c.replacement = r.replacement;
  c.enforcement = r.enforcement;
  c.esdh_scale = r.esdh_scale;
  return c;
}

const std::vector<std::string>& CpaConfig::known_acronyms() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const ConfigRow& r : kConfigs) v.emplace_back(r.name);
    return v;
  }();
  return names;
}

std::string CpaConfig::describe(const std::string& name) {
  return row_named(name).description;
}

std::string CpaConfig::acronym() const {
  // The eSDH scale names a configuration only where NRU profiles it.
  const bool scaled = partitioned() && replacement == ReplacementKind::kNru;
  for (const ConfigRow& r : kConfigs) {
    if (r.replacement == replacement && r.enforcement == enforcement &&
        (!scaled || r.esdh_scale == esdh_scale))
      return r.name;
  }
  // A combination no row names, such as the eSDH-scale ablation's M-0.375N.
  std::ostringstream os;
  os << (enforcement == EnforcementMode::kOwnerCounters ? 'C' : 'M') << '-';
  if (scaled) {
    std::ostringstream scale;
    scale << esdh_scale;
    std::string s = scale.str();
    if (s.find('.') == std::string::npos) s += ".0";  // "1" -> "1.0"
    os << s;
  }
  for (const ConfigRow& r : kConfigs) {
    if (r.replacement == replacement && r.enforcement == EnforcementMode::kNone)
      os << std::string_view(r.name).substr(std::string_view("NOPART-").size());
  }
  return os.str();
}

PartitionedCacheSystem::PartitionedCacheSystem(CpaConfig config)
    : config_(std::move(config)),
      // The geometry is validated before the L2 derives its shape from it.
      l2_((config_.geometry.validate(), config_.geometry), config_.replacement,
          config_.num_cores, config_.enforcement) {
  PLRUPART_ASSERT_MSG(config_.num_cores <= config_.geometry.associativity,
                      "cannot give every core a way");
  if (!config_.partitioned()) return;
  // Every core's profiler starts from the same empty ATD and SDH.
  std::vector<Profiler> profilers(
      config_.num_cores, Profiler(config_.geometry, config_.replacement,
                                  config_.sampling_ratio, config_.esdh_scale,
                                  config_.nru_update));
  controller_.emplace(config_.interval_cycles, config_.decide,
                      std::move(profilers), l2_, config_.repartition_hysteresis,
                      config_.bt_strict_pow2);
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
