// Seeded byte-level mutation of a whole file's bytes, for the suites that
// check that a reader either decodes a damaged input exactly or rejects it
// with a named error (trace files, journal records).
#pragma once

#include <cstdint>
#include <string>

#include "plrupart/common/rng.hpp"

namespace plrupart::testing {

/// One of: 1-4 byte flips, a truncation, or an extension by 1-64 random
/// bytes or by a copy of a slice of the input itself (often well-formed).
/// `bytes` must not be empty.
inline std::string mutate_bytes(std::string bytes, Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: {
      const auto flips = 1 + rng.next_below(4);
      for (std::uint64_t k = 0; k < flips; ++k)
        bytes[rng.next_below(bytes.size())] ^= static_cast<char>(1 + rng.next_below(255));
      break;
    }
    case 1:
      bytes.resize(rng.next_below(bytes.size()));
      break;
    default: {
      const auto n = 1 + rng.next_below(64);
      if (rng.next_bool(0.5)) {
        for (std::uint64_t k = 0; k < n; ++k)
          bytes.push_back(static_cast<char>(rng.next_below(256)));
      } else {
        const auto from = rng.next_below(bytes.size());
        bytes.append(bytes.substr(from, n));
      }
      break;
    }
  }
  return bytes;
}

}  // namespace plrupart::testing
