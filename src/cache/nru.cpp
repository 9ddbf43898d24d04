#include "plrupart/cache/nru.hpp"

namespace plrupart::cache {

Nru::Nru(const Geometry& geo) : PolicyShape(geo) {
  used_.resize(sets_, 0);
}

void Nru::reset() {
  for (auto& u : used_) u = 0;
  pointer_ = 0;
}

bool Nru::used_bit(std::uint64_t set, std::uint32_t way) const {
  return mask_test(used_[set], way);
}

std::uint32_t Nru::used_count(std::uint64_t set) const {
  return mask_count(used_[set] & all_ways());
}

}  // namespace plrupart::cache
