#include "plrupart/core/profiler.hpp"

#include <cmath>
#include <sstream>

namespace plrupart::core {

cache::ReplacementKind profiler_atd_kind(cache::ReplacementKind l2_replacement) {
  return l2_replacement == cache::ReplacementKind::kRandom ? cache::ReplacementKind::kLru
                                                           : l2_replacement;
}

Profiler::Profiler(const cache::Geometry& l2_geometry,
                   cache::ReplacementKind atd_replacement, std::uint32_t sampling_ratio,
                   std::uint64_t seed, double esdh_scale, NruUpdateMode nru_mode)
    : atd_(l2_geometry, atd_replacement, sampling_ratio, seed),
      sdh_(l2_geometry.associativity),
      kind_(atd_replacement),
      scale_(esdh_scale),
      nru_mode_(nru_mode),
      smear_(kind_ == cache::ReplacementKind::kNru && nru_mode == NruUpdateMode::kSmear
                 ? l2_geometry.associativity + 1
                 : 0,
             0.0) {
  PLRUPART_ASSERT_MSG(kind_ != cache::ReplacementKind::kRandom,
                      "a random ATD has no recency state to profile");
  PLRUPART_ASSERT_MSG(esdh_scale > 0.0 && esdh_scale <= 1.0,
                      "eSDH scale must be in (0, 1]");
}

std::string Profiler::name() const {
  switch (kind_) {
    case cache::ReplacementKind::kNru: {
      std::ostringstream os;
      os << "eSDH-NRU(S=" << scale_ << ')';
      return os.str();
    }
    case cache::ReplacementKind::kTreePlru:
      return "eSDH-BT";
    case cache::ReplacementKind::kSrrip:
      return "eSDH-SRRIP";
    case cache::ReplacementKind::kLru:
    case cache::ReplacementKind::kRandom:
      break;
  }
  return "SDH-LRU";
}

void Profiler::record_nru_hit(const cache::StackEstimate& est) {
  const std::uint32_t assoc = sdh_.associativity();
  if (est.lo == 1) {
    // Used bit was 1: distance within [1, U]. The scaled endpoint is
    // ceil(S*U) (paper §III-A: if S*U is not an integer, select the closest
    // upper one).
    const std::uint32_t u = est.hi;
    if (nru_mode_ == NruUpdateMode::kSmear) {
      const double w = 1.0 / static_cast<double>(u);
      for (std::uint32_t d = 1; d <= u; ++d) smear_[d - 1] += w;
      return;
    }
    auto top = static_cast<std::uint32_t>(std::ceil(scale_ * static_cast<double>(u)));
    if (top < 1) top = 1;
    if (top > assoc) top = assoc;
    if (nru_mode_ == NruUpdateMode::kPoint) {
      sdh_.record_hit(top);
    } else {
      // kRange / kPointRecordUnused: "we increase both SDH registers r1 and
      // r2" — every register up to the scaled endpoint.
      for (std::uint32_t d = 1; d <= top; ++d) sdh_.record_hit(d);
    }
    return;
  }
  // Used bit was 0: distance within [U+1, A]. The paper records nothing —
  // incrementing every register shifts the whole curve without changing its
  // shape. kPointRecordUnused measures what recording A instead would do.
  if (nru_mode_ == NruUpdateMode::kPointRecordUnused) {
    sdh_.record_hit(assoc);
  } else if (nru_mode_ == NruUpdateMode::kSmear) {
    const std::uint32_t lo = est.lo;
    const double w = 1.0 / static_cast<double>(assoc - lo + 1);
    for (std::uint32_t d = lo; d <= assoc; ++d) smear_[d - 1] += w;
  }
}

MissCurve Profiler::curve() const {
  if (smear_.empty()) return MissCurve::from_sdh(sdh_);
  // Fractional hit registers plus the integer miss register.
  const std::uint32_t assoc = sdh_.associativity();
  std::vector<double> misses(assoc + 1);
  double tail = static_cast<double>(sdh_.reg(assoc + 1));
  misses[assoc] = tail;
  for (std::uint32_t w = assoc; w >= 1; --w) {
    tail += smear_[w - 1];
    misses[w - 1] = tail;
  }
  return MissCurve(std::move(misses));
}

void Profiler::decay() {
  sdh_.decay_halve();
  for (auto& v : smear_) v *= 0.5;
}

}  // namespace plrupart::core
