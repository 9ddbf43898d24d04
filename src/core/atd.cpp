#include "plrupart/core/atd.hpp"

#include <algorithm>

#include "cache/policy_visit.hpp"
#include "plrupart/common/bits.hpp"

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
    : l2_geo_(l2_geometry),
      atd_geo_(sampled_geometry(l2_geometry, sampling_ratio)),
      sampling_ratio_(sampling_ratio),
      kind_(replacement),
      policy_(cache::make_policy(replacement, atd_geo_, seed)) {
  PLRUPART_ASSERT(kind_ == policy_->kind());
  ways_ = atd_geo_.associativity;
  sample_shift_ = ilog2_exact(sampling_ratio_);
  l2_tag_shift_ = ilog2_exact(l2_geo_.sets());
  l2_set_mask_ = l2_geo_.sets() - 1;
  all_ways_ = full_way_mask(ways_);
  tags_.assign(atd_geo_.sets() * ways_, 0);
  valid_.assign(atd_geo_.sets(), 0);
}

std::uint32_t Atd::find_way(std::uint64_t set, std::uint64_t tag) const {
  const WayMask match =
      tag_match_mask(tags_.data() + set * ways_, ways_, tag) & valid_[set];
  return match != 0 ? mask_first(match) : kNoWay;
}

void Atd::reset() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(valid_.begin(), valid_.end(), 0);
  policy_->reset();
}

template <class Policy>
AtdObservation Atd::access_impl(Policy& pol, std::uint64_t set, std::uint64_t tag) {
  AtdObservation obs;

  if (const std::uint32_t w = find_way(set, tag); w != kNoWay) {
    obs.hit = true;
    obs.way = w;
    obs.estimate = pol.estimate_position(set, w);
    pol.on_hit(set, w, all_ways_);
    return obs;
  }

  // ATD miss: the thread would miss even owning the full associativity.
  obs.hit = false;
  std::uint32_t victim;
  if (const WayMask invalid = all_ways_ & ~valid_[set]; invalid != 0) {
    victim = mask_first(invalid);
  } else {
    victim = pol.choose_victim(set, all_ways_);
  }
  tags_[set * ways_ + victim] = tag;
  valid_[set] |= WayMask{1} << victim;
  pol.on_fill(set, victim, all_ways_);
  obs.way = victim;
  return obs;
}

std::optional<AtdObservation> Atd::access(cache::Addr line_addr) {
  if (!is_sampled(line_addr)) return std::nullopt;
  const std::uint64_t l2_set = line_addr & l2_set_mask_;
  const std::uint64_t set = l2_set >> sample_shift_;
  // Tag must disambiguate everything above the ATD's own index bits; reuse the
  // line address above the L2 set index plus the sampled set remainder, which
  // is constant per ATD set, so the plain L2 tag suffices.
  const std::uint64_t tag = line_addr >> l2_tag_shift_;
  return cache::visit_policy(kind_, *policy_, [&](auto& pol) {
    return access_impl(pol, set, tag);
  });
}

std::uint64_t Atd::storage_bits(std::uint32_t tag_bits) const {
  // Tag + valid bit per entry, plus the replacement metadata of the ATD's own
  // policy. For the paper's LRU ATD this reproduces the 3.25KB figure:
  // 32 sets x 16 ways x (47 tag + 1 valid + 4 LRU) bits = 26,624 bits.
  const std::uint64_t entries = atd_geo_.sets() * atd_geo_.associativity;
  std::uint64_t per_entry = tag_bits + 1;
  std::uint64_t per_set_extra = 0;
  const std::uint32_t a = atd_geo_.associativity;
  switch (kind_) {
    case cache::ReplacementKind::kLru:
      per_entry += ilog2_exact(a);
      break;
    case cache::ReplacementKind::kNru:
      per_entry += 1;  // used bit; the global pointer is log2(A) bits overall
      break;
    case cache::ReplacementKind::kTreePlru:
      per_set_extra = a - 1;
      break;
    case cache::ReplacementKind::kRandom:
      break;
    case cache::ReplacementKind::kSrrip:
      per_entry += 2;  // 2-bit RRPV
      break;
  }
  return entries * per_entry + atd_geo_.sets() * per_set_extra +
         (kind_ == cache::ReplacementKind::kNru ? ilog2_exact(a) : 0);
}

}  // namespace plrupart::core
