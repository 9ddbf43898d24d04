#include "plrupart/cache/random_repl.hpp"

namespace plrupart::cache {

RandomRepl::RandomRepl(const Geometry& geo, std::uint64_t seed)
    : PolicyShape(geo), rng_(seed), seed_(seed) {}

void RandomRepl::reset() { rng_ = Rng(seed_); }

}  // namespace plrupart::cache
