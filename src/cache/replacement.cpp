#include "plrupart/cache/replacement.hpp"

namespace plrupart::cache {

std::string to_string(ReplacementKind k) {
  switch (k) {
    case ReplacementKind::kLru:
      return "LRU";
    case ReplacementKind::kNru:
      return "NRU";
    case ReplacementKind::kTreePlru:
      return "BT";
    case ReplacementKind::kRandom:
      return "RANDOM";
    case ReplacementKind::kSrrip:
      return "SRRIP";
  }
  return "?";
}

}  // namespace plrupart::cache
