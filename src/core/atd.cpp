#include "plrupart/core/atd.hpp"

#include <variant>

#include "plrupart/common/bits.hpp"
#include "plrupart/power/complexity.hpp"

namespace plrupart::core {

namespace {
[[nodiscard]] cache::Geometry sampled_geometry(const cache::Geometry& l2,
                                               std::uint32_t ratio) {
  PLRUPART_ASSERT_MSG(is_pow2(ratio), "sampling ratio must be a power of two");
  PLRUPART_ASSERT_MSG(l2.sets() % ratio == 0, "sampling ratio exceeds set count");
  cache::Geometry g = l2;
  g.size_bytes = l2.size_bytes / ratio;
  g.validate();
  return g;
}
}  // namespace

Atd::Atd(const cache::Geometry& l2_geometry, cache::ReplacementKind replacement,
         std::uint32_t sampling_ratio, std::uint64_t seed)
    : cache_(sampled_geometry(l2_geometry, sampling_ratio), replacement, 1,
             cache::EnforcementMode::kNone, seed),
      sampling_ratio_(sampling_ratio),
      sample_shift_(ilog2_exact(sampling_ratio)),
      line_shift_(ilog2_exact(l2_geometry.line_bytes)),
      set_mask_(cache_.geometry().sets() - 1) {}

std::optional<AtdObservation> Atd::access(cache::Addr line_addr) {
  if (!is_sampled(line_addr)) return std::nullopt;
  const cache::Addr atd_line = line_addr >> sample_shift_;
  const cache::Addr addr = atd_line << line_shift_;
  cache::StackEstimate estimate{};
  if (const auto pre = cache_.probe(addr); pre.hit) {
    estimate = std::visit(
        [&](const auto& pol) { return pol.estimate_position(atd_line & set_mask_, pre.way); },
        cache_.policy());
  }
  const cache::AccessOutcome out = cache_.access(0, addr);
  return AtdObservation{.hit = out.hit, .way = out.way, .estimate = estimate};
}

std::uint64_t Atd::storage_bits(std::uint32_t tag_bits) const {
  // For the paper's LRU ATD this reproduces the 3.25KB figure:
  // 32 sets x 16 ways x (47 tag + 1 valid + 4 LRU) bits = 26,624 bits.
  const power::ComplexityParams p{.associativity = associativity(),
                                  .sets = sets(),
                                  .cores = 1,
                                  .tag_bits = tag_bits,
                                  .line_bytes = cache_.geometry().line_bytes};
  return power::atd_storage_bits(cache_.replacement(), p, 1);
}

}  // namespace plrupart::core
