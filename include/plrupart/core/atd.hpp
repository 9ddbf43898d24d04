// Auxiliary Tag Directory (paper §II-A, §III).
//
// A per-thread copy of the tag directory with the same associativity as the
// L2, so the profiling logic observes how the thread would behave running
// alone. Set sampling (paper: 1 in 32) keeps the area at ~3.25KB per core for
// the baseline L2: an L2 access probes the ATD only when its set is sampled.
//
// The ATD runs its own instance of the cache's replacement policy; the
// pre-update StackEstimate it reports is exactly what the three profilers
// (LRU/NRU/BT) consume.
//
// Like SetAssocCache, the probe path uses a structure-of-arrays layout
// (contiguous per-set tags + a valid bitmask) and static policy dispatch, so
// a sampled access costs a vectorizable tag scan plus an inlined policy
// update rather than an entry-struct walk and 2-3 virtual calls.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/cache/replacement.hpp"

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
    return atd_geo_.associativity;
  }
  [[nodiscard]] std::uint64_t sets() const noexcept { return atd_geo_.sets(); }
  [[nodiscard]] const cache::ReplacementPolicy& policy() const noexcept { return *policy_; }

  /// Storage cost of this ATD in bits: per entry one tag + valid bit + the
  /// replacement metadata share (see power/complexity.hpp for the formulas).
  [[nodiscard]] std::uint64_t storage_bits(std::uint32_t tag_bits) const;

  void reset();

 private:
  static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

  /// Shared tag scan of the probe path (same shape as SetAssocCache::find_way,
  /// on full tag words): tag_match_mask over the set's tags, restricted to
  /// valid ways. Returns the lowest matching way or kNoWay.
  [[nodiscard]] std::uint32_t find_way(std::uint64_t set, std::uint64_t tag) const;

  template <class Policy>
  AtdObservation access_impl(Policy& pol, std::uint64_t set, std::uint64_t tag);

  cache::Geometry l2_geo_;
  cache::Geometry atd_geo_;
  std::uint32_t sampling_ratio_;
  cache::ReplacementKind kind_;
  std::unique_ptr<cache::ReplacementPolicy> policy_;

  // Precomputed address decomposition (all powers of two).
  std::uint32_t ways_ = 0;
  std::uint32_t sample_shift_ = 0;  ///< log2(sampling_ratio)
  std::uint32_t l2_tag_shift_ = 0;  ///< log2(L2 sets)
  std::uint64_t l2_set_mask_ = 0;
  WayMask all_ways_ = 0;

  // SoA entry state.
  std::vector<std::uint64_t> tags_;  ///< [set * A + way]
  std::vector<WayMask> valid_;       ///< per-set valid bitmask
};

}  // namespace plrupart::core
