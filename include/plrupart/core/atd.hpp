// Auxiliary Tag Directory (paper §II-A, §III).
//
// A per-thread copy of the tag directory with the same associativity as the
// L2, so the profiling logic observes how the thread would behave running
// alone. Set sampling (paper: 1 in 32) keeps the area at ~3.25KB per core for
// the baseline L2: an L2 access probes the ATD only when its set is sampled.
//
// The ATD is a one-core, unpartitioned SetAssocCache holding the sampled sets
// and running the cache's own replacement policy, so it shares the L2's tag
// scan, invalid-first fill and victim path. The pre-update StackEstimate it
// reports is what the Profiler's (e)SDH rule consumes.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <optional>

#include "plrupart/cache/cache.hpp"

namespace plrupart::core {

/// What the ATD observed for one sampled access, captured *before* the
/// replacement state was updated by that access.
struct PLRUPART_EXPORT AtdObservation {
  bool hit = false;
  std::uint32_t way = 0;
  /// Valid only on hits: recency estimate for the line that was accessed.
  cache::StackEstimate estimate{};
};

class PLRUPART_EXPORT Atd {
 public:
  /// `l2_geometry` is the shape of the cache being profiled; the ATD keeps
  /// l2_sets / sampling_ratio sets (sampling_ratio == 1 disables sampling).
  Atd(const cache::Geometry& l2_geometry, cache::ReplacementKind replacement,
      std::uint32_t sampling_ratio, std::uint64_t seed = 0x5eed);

  /// Probe the ATD with an L2 line address. Returns nullopt when the set is
  /// not sampled; otherwise the observation (the ATD state is updated, and a
  /// missing line is installed over the policy's victim).
  std::optional<AtdObservation> access(cache::Addr line_addr);

  [[nodiscard]] bool is_sampled(cache::Addr line_addr) const {
    // Sample every `ratio`-th L2 set. Keeping the decision on the L2 set index
    // (not a separate hash) mirrors the hardware wiring in [22]. The ratio
    // divides the L2 set count, so masking the line address directly is the
    // set-index test without the full decomposition.
    return (line_addr & (sampling_ratio_ - 1)) == 0;
  }

  [[nodiscard]] std::uint32_t sampling_ratio() const noexcept { return sampling_ratio_; }
  [[nodiscard]] std::uint32_t associativity() const noexcept {
    return cache_.geometry().associativity;
  }
  [[nodiscard]] std::uint64_t sets() const noexcept { return cache_.geometry().sets(); }

  /// Storage cost of this ATD in bits: per entry one tag + valid bit + the
  /// replacement metadata share (power::atd_storage_bits).
  [[nodiscard]] std::uint64_t storage_bits(std::uint32_t tag_bits) const;

  void reset() { cache_.reset(); }

 private:
  // Sampled line L lives at ATD line L >> sample_shift_: its low bits select
  // the ATD set ((L & l2_set_mask) >> sample_shift_) and the rest is the L2
  // tag (L >> log2 l2_sets), so no two sampled lines alias.
  cache::SetAssocCache cache_;
  std::uint32_t sampling_ratio_;
  std::uint32_t sample_shift_;  ///< log2(sampling_ratio)
  std::uint32_t line_shift_;    ///< log2(line_bytes)
  std::uint64_t set_mask_;      ///< ATD sets - 1
};

}  // namespace plrupart::core
