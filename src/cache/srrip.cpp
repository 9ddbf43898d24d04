#include "plrupart/cache/srrip.hpp"

namespace plrupart::cache {

Srrip::Srrip(const Geometry& geo) : ReplacementPolicy(geo) {
  // Cold lines look distant.
  rrpv_.resize(sets_ * ways_ + 8, kMaxRrpv);
}

void Srrip::reset() {
  for (auto& r : rrpv_) r = kMaxRrpv;
}

}  // namespace plrupart::cache
