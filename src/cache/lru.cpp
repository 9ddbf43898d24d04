#include "plrupart/cache/lru.hpp"

namespace plrupart::cache {

TrueLru::TrueLru(const Geometry& geo) : PolicyShape(geo) {
  pos_.resize(sets_ * ways_ + 8);
  reset();
}

void TrueLru::reset() {
  for (std::uint64_t s = 0; s < sets_; ++s)
    for (std::uint32_t w = 0; w < ways_; ++w) pos(s, w) = static_cast<std::uint8_t>(w);
}

std::uint32_t TrueLru::stack_position(std::uint64_t set, std::uint32_t way) const {
  return pos(set, way);
}

}  // namespace plrupart::cache
