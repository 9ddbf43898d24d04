// Test-local virtual seam over the concrete replacement policies.
//
// The library holds its policies by value (cache::PolicyVariant) and reaches
// them through an inlined visit. Two test users want the opposite:
//  * ReferenceCache (reference_cache.hpp) is the frozen virtual-dispatch
//    baseline that perf_smoke measures the optimized cache against, so it
//    must keep paying one opaque indirect call per policy hook;
//  * the ReplacementConformance suite drives every policy through one
//    runtime-chosen object.
// The implementations live in virtual_policy.cpp (the plrupart_test_support
// library), so a caller sees only this abstract class, exactly as callers of
// the library's former virtual interface did: the compiler cannot see the
// override set, and the baseline's cost stays what perf_smoke was tuned on.
#pragma once

#include <cstdint>
#include <memory>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/cache/replacement.hpp"

namespace plrupart::testing {

class VirtualPolicy {
 public:
  VirtualPolicy() = default;
  virtual ~VirtualPolicy() = default;
  VirtualPolicy(const VirtualPolicy&) = delete;
  VirtualPolicy& operator=(const VirtualPolicy&) = delete;

  virtual void on_hit(std::uint64_t set, std::uint32_t way, WayMask allowed) = 0;
  virtual void on_fill(std::uint64_t set, std::uint32_t way, WayMask allowed) = 0;
  [[nodiscard]] virtual std::uint32_t choose_victim(std::uint64_t set, WayMask allowed) = 0;
  [[nodiscard]] virtual cache::StackEstimate estimate_position(std::uint64_t set,
                                                               std::uint32_t way) const = 0;
  virtual void reset() = 0;
  [[nodiscard]] virtual const cache::PolicyShape& shape() const = 0;
};

/// The policy SetAssocCache would hold for `kind`, behind the virtual seam.
[[nodiscard]] std::unique_ptr<VirtualPolicy> make_virtual_policy(cache::ReplacementKind kind,
                                                                 const cache::Geometry& geo,
                                                                 std::uint64_t seed = 0x5eed);

}  // namespace plrupart::testing
