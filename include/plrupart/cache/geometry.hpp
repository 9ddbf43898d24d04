// Cache geometry and address decomposition.
#pragma once

#include "plrupart/export.hpp"

#include <bit>
#include <cstdint>

#include "plrupart/common/assert.hpp"
#include "plrupart/common/bits.hpp"

namespace plrupart::cache {

using Addr = std::uint64_t;
using CoreId = std::uint32_t;

/// Physical shape of a set-associative cache. All three fields must be powers
/// of two so that address decomposition is pure bit slicing, as in hardware:
/// the accessors below shift by log2 of a field instead of dividing by it
/// (identical results for every geometry validate() accepts).
struct PLRUPART_EXPORT Geometry {
  std::uint64_t size_bytes = 2ULL * 1024 * 1024;
  std::uint32_t associativity = 16;
  std::uint32_t line_bytes = 128;

  [[nodiscard]] constexpr std::uint64_t lines() const {
    return size_bytes >> std::countr_zero(line_bytes);
  }
  [[nodiscard]] constexpr std::uint64_t sets() const {
    return lines() >> std::countr_zero(associativity);
  }

  void validate() const {
    PLRUPART_ASSERT_MSG(is_pow2(size_bytes), "cache size must be a power of two");
    PLRUPART_ASSERT_MSG(is_pow2(line_bytes), "line size must be a power of two");
    PLRUPART_ASSERT_MSG(is_pow2(associativity), "associativity must be a power of two");
    PLRUPART_ASSERT(associativity >= 1 && associativity <= kMaxAssociativity);
    PLRUPART_ASSERT_MSG(size_bytes >= static_cast<std::uint64_t>(line_bytes) * associativity,
                        "cache smaller than one set");
  }

  /// Byte address -> line-granular address.
  [[nodiscard]] constexpr Addr line_addr(Addr byte_addr) const {
    return byte_addr >> std::countr_zero(line_bytes);
  }
  /// Line address -> set index.
  [[nodiscard]] constexpr std::uint64_t set_index(Addr line) const {
    return line & (sets() - 1);
  }
  /// Line address -> tag.
  [[nodiscard]] constexpr std::uint64_t tag(Addr line) const {
    return line >> ilog2_exact(sets());
  }

  friend constexpr bool operator==(const Geometry&, const Geometry&) = default;
};

/// Geometry of the paper's baseline shared L2: 2MB, 16-way, 128B lines.
[[nodiscard]] constexpr Geometry paper_l2_geometry() {
  return Geometry{.size_bytes = 2ULL * 1024 * 1024, .associativity = 16, .line_bytes = 128};
}

}  // namespace plrupart::cache
