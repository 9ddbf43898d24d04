// Synthetic trace generation.
//
// The repo's substitute for SPEC CPU 2000 SimPoint traces (licensed, so not
// shippable; see catalog.hpp):
// each benchmark is modeled as a weighted mixture of access components with
// characteristic working-set sizes and reuse patterns, plus an optional phase
// schedule that rotates the mixture over time (what the dynamic CPA adapts
// to). Generation is deterministic per (profile, seed).
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plrupart/common/rng.hpp"
#include "plrupart/sim/core_model.hpp"
#include "plrupart/sim/mem_op.hpp"

namespace plrupart::workloads {

enum class PatternKind : std::uint8_t {
  kSequentialStream,  ///< linear scan over the region, wrapping (no temporal reuse)
  kStridedLoop,       ///< strided scan with wraparound (vector-code style)
  kRandomRegion,      ///< uniform random lines within the region (hot-set reuse)
  kPointerChase,      ///< dependent random walk (same locality as kRandomRegion;
                      ///< its latency sensitivity lives in CoreParams.stall_fraction)
};

struct PLRUPART_EXPORT ComponentSpec {
  PatternKind kind = PatternKind::kRandomRegion;
  std::uint64_t region_bytes = 256 * 1024;
  std::uint32_t stride_bytes = 128;  ///< kStridedLoop only
  double weight = 1.0;               ///< relative selection probability
  /// Locality skew for kRandomRegion / kPointerChase: line index is drawn as
  /// floor(lines * u^skew). 1.0 = uniform (a hard working-set cliff in the
  /// miss curve); larger values concentrate reuse at the region's head the
  /// way real program footprints do, smoothing the curve.
  double skew = 1.0;
};

struct PLRUPART_EXPORT BenchmarkProfile {
  std::string name;
  double mem_fraction = 0.3;    ///< memory ops per committed instruction
  double write_fraction = 0.3;  ///< stores among memory ops
  sim::CoreParams core;         ///< timing personality of the benchmark
  std::vector<ComponentSpec> components;
  /// Rotate component weights every `phase_period_ops` memory operations
  /// (0 = stationary behavior).
  std::uint64_t phase_period_ops = 0;
  /// Short-term locality: this fraction of memory operations targets a small
  /// L1-resident scratch region (stack/registers-spill/top-of-heap traffic).
  /// Real codes satisfy 85-99% of accesses in L1; without this the L2 sees
  /// an unrealistically large share of the instruction stream.
  double l1_fraction = 0.0;
  std::uint64_t l1_region_bytes = 16 * 1024;
};

class PLRUPART_EXPORT SyntheticTrace final : public sim::TraceSource {
 public:
  SyntheticTrace(BenchmarkProfile profile, std::uint64_t base_addr, std::uint64_t seed);

  sim::MemOp next() override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return profile_.name; }

  [[nodiscard]] const BenchmarkProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] std::uint64_t ops_emitted() const noexcept { return ops_; }
  /// Current phase index (component-weight rotation count).
  [[nodiscard]] std::uint64_t phase() const noexcept {
    return profile_.phase_period_ops ? ops_ / profile_.phase_period_ops : 0;
  }

 private:
  /// Per-component line bookkeeping, precomputed so next() divides by nothing.
  struct Cursor {
    std::uint64_t lines = 0;  ///< lines in the component's region
    std::uint64_t step = 0;   ///< scan advance per access, reduced mod lines
    std::uint64_t pos = 0;    ///< next scanned line, in [0, lines)
  };

  [[nodiscard]] std::size_t pick_component();
  [[nodiscard]] cache::Addr component_address(std::size_t idx);

  BenchmarkProfile profile_;
  std::uint64_t base_addr_;
  std::uint64_t seed_;
  Rng rng_;
  std::vector<std::uint64_t> bases_;  // absolute base address per component
  std::vector<Cursor> cursors_;
  std::uint64_t ops_ = 0;
  double mean_gap_ = 0.0;  // (1 - f) / f gap instructions per memory op
  double gap_carry_ = 0.0;
  double total_weight_ = 0.0;
  std::size_t rot_ = 0;          // phase() % components
  std::uint64_t phase_left_ = 0;  // ops until the next rotation (0: stationary)
};

/// Build the trace for one benchmark instance running on `core_id` (the id
/// keys a disjoint address space so threads never share data in the L2).
[[nodiscard]] PLRUPART_EXPORT std::unique_ptr<SyntheticTrace> make_trace(const BenchmarkProfile& profile,
                                                         std::uint32_t core_id,
                                                         std::uint64_t seed);

}  // namespace plrupart::workloads
