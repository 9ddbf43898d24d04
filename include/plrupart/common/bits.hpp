// Bit-manipulation helpers shared by the replacement-policy and profiling logic.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "plrupart/common/assert.hpp"

namespace plrupart {

/// FNV-1a offset basis — the seed for fnv1a64 chains.
inline constexpr std::uint64_t kFnv1a64Init = 0xcbf29ce484222325ULL;

/// Fold `bytes` into a running FNV-1a 64-bit hash. Not cryptographic; used
/// for stable content fingerprints (journal records, run-matrix identity)
/// that must agree across platforms and runs.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                              std::uint64_t h = kFnv1a64Init) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// True iff x is a power of two (0 is not).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// floor(log2(x)); requires x > 0.
[[nodiscard]] constexpr std::uint32_t ilog2(std::uint64_t x) {
  PLRUPART_ASSERT(x > 0);
  return static_cast<std::uint32_t>(63 - std::countl_zero(x));
}

/// Exact log2; requires x to be a power of two.
[[nodiscard]] constexpr std::uint32_t ilog2_exact(std::uint64_t x) {
  PLRUPART_ASSERT(is_pow2(x));
  return ilog2(x);
}

/// Smallest power of two >= x (x > 0).
[[nodiscard]] constexpr std::uint64_t ceil_pow2(std::uint64_t x) {
  PLRUPART_ASSERT(x > 0);
  return std::bit_ceil(x);
}

/// Largest power of two <= x (x > 0).
[[nodiscard]] constexpr std::uint64_t floor_pow2(std::uint64_t x) {
  PLRUPART_ASSERT(x > 0);
  return std::bit_floor(x);
}

/// A set of cache ways encoded as a bit mask. Way i is in the set iff bit i is 1.
/// 64 bits bounds the supported associativity at 64, far above the paper's 16.
using WayMask = std::uint64_t;

inline constexpr std::uint32_t kMaxAssociativity = 64;

/// Mask with the low `ways` bits set (all ways of an A-way set).
[[nodiscard]] constexpr WayMask full_way_mask(std::uint32_t ways) {
  PLRUPART_ASSERT(ways >= 1 && ways <= kMaxAssociativity);
  return ways == kMaxAssociativity ? ~WayMask{0} : ((WayMask{1} << ways) - 1);
}

/// Mask covering the contiguous way range [first, first + count).
[[nodiscard]] constexpr WayMask way_range_mask(std::uint32_t first, std::uint32_t count) {
  PLRUPART_ASSERT(first + count <= kMaxAssociativity);
  return count == 0 ? WayMask{0} : full_way_mask(count) << first;
}

[[nodiscard]] constexpr bool mask_test(WayMask m, std::uint32_t way) noexcept {
  return (m >> way) & 1U;
}

[[nodiscard]] constexpr std::uint32_t mask_count(WayMask m) noexcept {
  return static_cast<std::uint32_t>(std::popcount(m));
}

/// Lowest set way; requires a non-empty mask. The precondition is a hard
/// invariant, not a debug check: PLRUPART_ASSERT is enabled in every build
/// type (see common/assert.hpp), so a violation throws InvariantError instead
/// of producing an out-of-range way (countr_zero(0) == 64) that would index
/// past every per-set array downstream.
[[nodiscard]] constexpr std::uint32_t mask_first(WayMask m) {
  PLRUPART_ASSERT(m != 0);
  return static_cast<std::uint32_t>(std::countr_zero(m));
}

/// Bitmask of the ways in values[0..ways) equal to `needle`. The per-way
/// equality scan of the ATD's full-tag compare, and the reference that
/// byte_match_mask below is tested against (test_byte_match): chunks of four
/// fixed-offset compares keep the loop branch-light and give the compiler
/// independent compare chains (and vectorizable code under -march flags)
/// instead of a serial variable-shift reduction.
///
/// Shift/width contract: `ways` must not exceed kMaxAssociativity (asserted —
/// in every build type). Within that bound every shift is by at most
/// ways - 1 <= 63 < CHAR_BIT * sizeof(WayMask): the chunked loop runs while
/// w + 4 <= ways, so its largest `<< w` is ways - 4, the lane bits add at
/// most 3, and the tail loop shifts by at most ways - 1. Each lane flag is
/// widened to WayMask *before* shifting, so no shift happens in a promoted
/// (signed) int. When T is narrower than int (uint8_t RRPVs), the `==`
/// compares integer-promoted values — exact for unsigned sources, hence the
/// static_assert.
template <class T>
[[nodiscard]] inline WayMask tag_match_mask(const T* values, std::uint32_t ways,
                                            T needle) {
  static_assert(std::is_unsigned_v<T>);
  PLRUPART_ASSERT(ways <= kMaxAssociativity);
  WayMask match = 0;
  std::uint32_t w = 0;
  for (; w + 4 <= ways; w += 4) {
    const WayMask m0 = static_cast<WayMask>(values[w + 0] == needle ? 1U : 0U);
    const WayMask m1 = static_cast<WayMask>(values[w + 1] == needle ? 1U : 0U) << 1;
    const WayMask m2 = static_cast<WayMask>(values[w + 2] == needle ? 1U : 0U) << 2;
    const WayMask m3 = static_cast<WayMask>(values[w + 3] == needle ? 1U : 0U) << 3;
    match |= (m0 | m1 | m2 | m3) << w;
  }
  for (; w < ways; ++w)
    match |= static_cast<WayMask>(values[w] == needle ? 1U : 0U) << w;
  return match;
}

/// Bitmask of the positions in bytes[0..count) equal to `needle`, count in
/// [1, kMaxAssociativity]: tag_match_mask for byte arrays, eight bytes per
/// step (SWAR). The byte scans of the cache hot path run on it: the partial-tag
/// filter of SetAssocCache::find_way and SRRIP's distant-line scan.
///
/// Reads whole 8-byte words, so bytes[0, 8 * ceil(count / 8)) must be
/// readable (callers pad their arrays); bytes at and past `count` never reach
/// the result. The zero-byte test is the exact one: in
/// ~(((x & 0x7f..) + 0x7f..) | x) & 0x80.. no carry crosses a byte, so a top
/// bit is set iff that byte of x is zero. The shorter borrow form
/// (x - 0x01..) & ~x & 0x80.. also marks a 0x01 byte just above a zero byte,
/// i.e. the way after a match whose value differs from `needle` only in bit 0.
[[nodiscard]] inline WayMask byte_match_mask(const std::uint8_t* bytes, std::uint32_t count,
                                             std::uint8_t needle) {
  static_assert(std::endian::native == std::endian::little,
                "byte i of a loaded word must be position i");
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  const std::uint64_t splat = needle * 0x0101010101010101ULL;
  const WayMask in_range = full_way_mask(count);
  WayMask match = 0;
  for (std::uint32_t j = 0; j * 8 < count; ++j) {
    std::uint64_t word;
    std::memcpy(&word, bytes + j * 8, sizeof word);
    const std::uint64_t x = word ^ splat;
    const std::uint64_t zero_tops = ~(((x & kLow7) + kLow7) | x) & ~kLow7;
    // The multiply gathers the eight top bits into the high byte, carry-free.
    match |= ((zero_tops * 0x0002040810204081ULL) >> 56) << (j * 8);
  }
  return match & in_range;
}

/// First set way at or after `start`, searching circularly within an A-way set.
/// Models the NRU replacement pointer scan. Requires m restricted to [0, ways)
/// to be non-empty and start < ways; both preconditions are asserted in every
/// build type (violations throw InvariantError — the scan cannot silently
/// return a way outside the set; callers guarantee non-emptiness by
/// construction, see Nru::choose_victim).
[[nodiscard]] constexpr std::uint32_t mask_next_circular(WayMask m, std::uint32_t start,
                                                         std::uint32_t ways) {
  const WayMask in_range = m & full_way_mask(ways);
  PLRUPART_ASSERT(in_range != 0);
  PLRUPART_ASSERT(start < ways);
  const WayMask at_or_after = in_range & ~((WayMask{1} << start) - 1);
  if (at_or_after != 0) return mask_first(at_or_after);
  return mask_first(in_range);
}

}  // namespace plrupart
