// The DispatchTier seam (plrupart/cache/dispatch.hpp) and the SIMD kernels
// behind it (src/cache/simd/simd_kernels.hpp).
//
// Kernel-level proof: every available tier's byte/u64 equality scan computes
// exactly tag_match_mask() -- fuzzed over widths 1..64, planted needles at
// every position (including every position inside each 4-wide SWAR chunk and
// each 32-byte vector block), and buffers padded per the padded-buffer
// contract with poison bytes past the end that must never leak into a result.
// (Cache-level tier-vs-reference identity is the GoldenEquivalence matrix's
// job.)
//
// The PLRUPART_SIMD_AVX2 macro is mirrored onto this test target by
// tests/CMakeLists.txt so the runtime-dispatch helpers route identically to
// the library's own TUs; a tier the build or host cannot run is skipped via
// dispatch_tier_available().
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/simd/simd_kernels.hpp"
#include "plrupart/cache/cache.hpp"
#include "plrupart/cache/dispatch.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/common/rng.hpp"
#include "plrupart/core/atd.hpp"

namespace plrupart {
namespace {

using cache::DispatchTier;
using cache::EnforcementMode;
using cache::ReplacementKind;

constexpr DispatchTier kAllTiers[] = {DispatchTier::kSwar, DispatchTier::kAvx2};

std::vector<DispatchTier> available_tiers() {
  std::vector<DispatchTier> tiers;
  for (const auto t : kAllTiers) {
    if (cache::dispatch_tier_available(t)) tiers.push_back(t);
  }
  return tiers;
}

/// A scan buffer satisfying the padded-buffer contract, with the pad filled
/// with the needle value itself: the nastiest poison, since any kernel that
/// forgets to mask its whole-block compare down to [0, count) will report
/// phantom matches in the pad.
template <class T>
std::vector<T> padded(const std::vector<T>& values, T poison) {
  std::vector<T> buf(values);
  buf.resize(values.size() + cache::simd::kSimdPadBytes / sizeof(T), poison);
  return buf;
}

TEST(SimdKernels, ByteMatchEveryTierEveryWidthEveryPosition) {
  for (const auto tier : available_tiers()) {
    for (std::uint32_t ways = 1; ways <= kMaxAssociativity; ++ways) {
      for (std::uint32_t pos = 0; pos < ways; ++pos) {
        std::vector<std::uint8_t> v(ways, 0x11);
        v[pos] = 0xab;
        const auto buf = padded<std::uint8_t>(v, 0xab);
        EXPECT_EQ(cache::simd::byte_match(tier, buf.data(), ways, 0xab),
                  WayMask{1} << pos)
            << to_string(tier) << " ways=" << ways << " pos=" << pos;
        // Absent needle: nothing may match, least of all the poisoned pad.
        EXPECT_EQ(cache::simd::byte_match(tier, buf.data(), ways, 0xcd), 0U)
            << to_string(tier) << " ways=" << ways;
      }
    }
  }
}

TEST(SimdKernels, ByteMatchFuzzAgainstTagMatchMask) {
  Rng rng(0x51);
  for (const auto tier : available_tiers()) {
    for (int iter = 0; iter < 2000; ++iter) {
      const auto ways = static_cast<std::uint32_t>(rng.next_in(1, kMaxAssociativity));
      std::vector<std::uint8_t> v(ways);
      // 4-value alphabet: dense collisions in every chunk position.
      for (auto& x : v) x = static_cast<std::uint8_t>(rng.next_below(4));
      const auto needle = static_cast<std::uint8_t>(rng.next_below(4));
      const auto buf = padded<std::uint8_t>(v, needle);
      EXPECT_EQ(cache::simd::byte_match(tier, buf.data(), ways, needle),
                tag_match_mask(v.data(), ways, needle))
          << to_string(tier) << " ways=" << ways << " iter=" << iter;
    }
  }
}

TEST(SimdKernels, U64MatchFuzzAgainstTagMatchMask) {
  Rng rng(0x52);
  for (const auto tier : available_tiers()) {
    for (int iter = 0; iter < 2000; ++iter) {
      const auto ways = static_cast<std::uint32_t>(rng.next_in(1, kMaxAssociativity));
      std::vector<std::uint64_t> v(ways);
      for (auto& x : v) x = rng.next_below(4) * 0x0123456789abcdefULL;
      const std::uint64_t needle = rng.next_below(4) * 0x0123456789abcdefULL;
      const auto buf = padded<std::uint64_t>(v, needle);
      EXPECT_EQ(cache::simd::u64_match(tier, buf.data(), ways, needle),
                tag_match_mask(v.data(), ways, needle))
          << to_string(tier) << " ways=" << ways << " iter=" << iter;
    }
  }
}

TEST(DispatchTierApi, ToStringParseRoundTrip) {
  for (const auto t : kAllTiers) {
    const auto parsed = cache::parse_dispatch_tier(to_string(t));
    ASSERT_TRUE(parsed.has_value()) << to_string(t);
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(cache::parse_dispatch_tier("").has_value());
  EXPECT_FALSE(cache::parse_dispatch_tier("avx").has_value());
  EXPECT_FALSE(cache::parse_dispatch_tier("AVX2").has_value());
  EXPECT_FALSE(cache::parse_dispatch_tier("native").has_value());
  // Spellings of removed tiers are rejected, not remapped to a live tier.
  EXPECT_FALSE(cache::parse_dispatch_tier("scalar").has_value());
  EXPECT_FALSE(cache::parse_dispatch_tier("avx512").has_value());
}

TEST(DispatchTierApi, PortableTiersAlwaysAvailableAndBestIsAvailable) {
  EXPECT_TRUE(cache::dispatch_tier_available(DispatchTier::kSwar));
  const auto best = cache::best_dispatch_tier();
  EXPECT_TRUE(cache::dispatch_tier_available(best));
  EXPECT_GE(best, DispatchTier::kSwar);
}

TEST(DispatchTierApi, InstancesSampleActiveTierAtConstruction) {
  const auto prev = cache::active_dispatch_tier();
  const cache::Geometry geo{.size_bytes = 16 * 4 * 64, .associativity = 4,
                            .line_bytes = 64};
  const auto best = cache::best_dispatch_tier();
  cache::set_active_dispatch_tier(DispatchTier::kSwar);
  const cache::SetAssocCache swar_cache(geo, ReplacementKind::kNru, 1,
                                        EnforcementMode::kNone);
  cache::set_active_dispatch_tier(best);
  const cache::SetAssocCache best_cache(geo, ReplacementKind::kNru, 1,
                                        EnforcementMode::kNone);
  cache::set_active_dispatch_tier(prev);
  EXPECT_EQ(swar_cache.dispatch_tier(), DispatchTier::kSwar);
  EXPECT_EQ(best_cache.dispatch_tier(), best);
  EXPECT_EQ(cache::active_dispatch_tier(), prev);
}

TEST(DispatchTierApi, ForcingUnavailableTierThrows) {
  bool all_available = true;
  for (const auto t : kAllTiers) all_available &= cache::dispatch_tier_available(t);
  if (all_available) {
    GTEST_SKIP() << "every tier is available on this build/host";
  }
  for (const auto t : kAllTiers) {
    if (!cache::dispatch_tier_available(t)) {
      EXPECT_THROW(cache::set_active_dispatch_tier(t), InvariantError) << to_string(t);
    }
  }
}

/// The ATD's u64 tag scan is tier-dispatched too: identical observation
/// streams under every tier.
TEST(AtdDispatch, ObservationsTierInvariant) {
  const cache::Geometry l2{.size_bytes = 256 * 16 * 64, .associativity = 16,
                           .line_bytes = 64};
  constexpr std::uint32_t kSampling = 8;
  std::vector<cache::Addr> lines(20000);
  Rng rng(0x77);
  for (auto& a : lines) a = rng.next_below(64 * l2.lines());

  const auto prev = cache::active_dispatch_tier();
  std::vector<std::unique_ptr<core::Atd>> atds;
  for (const auto tier : available_tiers()) {
    cache::set_active_dispatch_tier(tier);
    atds.push_back(std::make_unique<core::Atd>(l2, ReplacementKind::kLru, kSampling));
  }
  cache::set_active_dispatch_tier(prev);

  for (const auto a : lines) {
    const auto base = atds.front()->access(a);
    for (std::size_t i = 1; i < atds.size(); ++i) {
      const auto obs = atds[i]->access(a);
      ASSERT_EQ(base.has_value(), obs.has_value()) << "addr " << a;
      if (base) {
        ASSERT_EQ(base->hit, obs->hit) << "addr " << a;
        ASSERT_EQ(base->way, obs->way) << "addr " << a;
        ASSERT_EQ(base->estimate.lo, obs->estimate.lo) << "addr " << a;
        ASSERT_EQ(base->estimate.hi, obs->estimate.hi) << "addr " << a;
        ASSERT_EQ(base->estimate.point, obs->estimate.point) << "addr " << a;
      }
    }
  }
}

}  // namespace
}  // namespace plrupart
