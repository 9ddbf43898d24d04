// Internal SIMD equality-scan kernels behind the DispatchTier seam.
//
// Every kernel computes exactly the function of the portable
// `tag_match_mask` template in plrupart/common/bits.hpp: the bitmask of
// positions in values[0..count) equal to `needle`, with bits >= count
// cleared. The tiers differ only in how many lanes one instruction compares
// (see plrupart/cache/dispatch.hpp); bit-identity across tiers is asserted by
// tests/test_simd_dispatch.cpp and the GoldenEquivalence replay matrix.
//
// PADDED-BUFFER CONTRACT: the vector kernels load whole 32-byte blocks and
// mask afterwards, so callers must guarantee that at least kSimdPadBytes past
// `values + count * sizeof(T)` are readable (same allocation). Every caller
// in the library over-allocates its scanned arrays accordingly (SetAssocCache
// set metadata, Atd tags, Srrip RRPV array). This header is internal
// precisely because the contract cannot be imposed on external buffers.
//
// The *_avx2_impl inline definitions are guarded by __AVX2__: they exist only
// in the translation units compiled with -mavx2 (src/cache/simd/access_avx2.cpp
// and kernels_avx2.cpp). Out-of-line wrappers (byte_match / u64_match) give
// runtime-dispatched callers (Atd, Srrip's virtual victim scan) access to the
// same kernels from plain TUs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "plrupart/cache/dispatch.hpp"
#include "plrupart/common/bits.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace plrupart::cache::simd {

/// Bytes the vector kernels may read past the end of the scanned range.
inline constexpr std::size_t kSimdPadBytes = 64;

#if defined(__AVX2__)

/// 32 byte lanes per compare; count in [1, 64].
[[nodiscard]] inline WayMask byte_match_avx2_impl(const std::uint8_t* values,
                                                  std::uint32_t count,
                                                  std::uint8_t needle) noexcept {
  const __m256i n = _mm256_set1_epi8(static_cast<char>(needle));
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values));
  WayMask m = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, n)));
  if (count > 32) {
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + 32));
    m |= static_cast<WayMask>(static_cast<std::uint32_t>(
             _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, n))))
         << 32;
  }
  return m & full_way_mask(count);
}

/// 4 uint64 lanes per compare; count in [1, 64].
[[nodiscard]] inline WayMask u64_match_avx2_impl(const std::uint64_t* values,
                                                 std::uint32_t count,
                                                 std::uint64_t needle) noexcept {
  const __m256i n = _mm256_set1_epi64x(static_cast<long long>(needle));
  WayMask m = 0;
  for (std::uint32_t i = 0; i < count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const auto lanes = static_cast<std::uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, n))));
    m |= static_cast<WayMask>(lanes) << i;
  }
  return m & full_way_mask(count);
}

#endif  // __AVX2__

// Out-of-line kernels (kernels_avx2.cpp, compiled with -mavx2) for
// runtime-dispatched callers in plain TUs. Only call when
// dispatch_tier_available(kAvx2) says so.
[[nodiscard]] WayMask byte_match_avx2(const std::uint8_t* values, std::uint32_t count,
                                      std::uint8_t needle) noexcept;
[[nodiscard]] WayMask u64_match_avx2(const std::uint64_t* values, std::uint32_t count,
                                     std::uint64_t needle) noexcept;

/// Runtime-dispatched byte scan (padded-buffer contract for kAvx2). kSwar
/// routes through the portable tag_match_mask template.
[[nodiscard]] inline WayMask byte_match(DispatchTier t, const std::uint8_t* values,
                                        std::uint32_t count, std::uint8_t needle) {
#if defined(PLRUPART_SIMD_AVX2)
  if (t == DispatchTier::kAvx2) return byte_match_avx2(values, count, needle);
#else
  (void)t;
#endif
  return tag_match_mask(values, count, needle);
}

/// Runtime-dispatched uint64 scan (padded-buffer contract for kAvx2).
[[nodiscard]] inline WayMask u64_match(DispatchTier t, const std::uint64_t* values,
                                       std::uint32_t count, std::uint64_t needle) {
#if defined(PLRUPART_SIMD_AVX2)
  if (t == DispatchTier::kAvx2) return u64_match_avx2(values, count, needle);
#else
  (void)t;
#endif
  return tag_match_mask(values, count, needle);
}

}  // namespace plrupart::cache::simd
