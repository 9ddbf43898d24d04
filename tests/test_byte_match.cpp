// byte_match_mask (plrupart/common/bits.hpp), the SWAR byte scan behind
// SetAssocCache's partial-tag filter and SRRIP's distant-line scan, pinned to
// the per-way reference tag_match_mask: every count 1..64 with a match at
// every position, the borrow-prone neighbour bytes around a match, and a
// fuzz. Buffers are exactly as long as the whole-word contract demands, with
// the overhang filled with the needle, so a scan that reads too far (caught
// under ASan) or forgets to mask the overhang both fail here.
//
// The GoldenEquivalence reference cache runs Srrip::choose_victim too, so the
// SRRIP scan is also checked here against a per-way model of the policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/cache/srrip.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/common/rng.hpp"

namespace plrupart {
namespace {

/// values[0..count) followed by needle-valued bytes up to the next 8-byte
/// boundary: the smallest buffer byte_match_mask may be handed.
std::vector<std::uint8_t> word_padded(const std::vector<std::uint8_t>& values,
                                      std::uint8_t needle) {
  std::vector<std::uint8_t> buf(8 * ((values.size() + 7) / 8), needle);
  std::copy(values.begin(), values.end(), buf.begin());
  return buf;
}

WayMask scan(const std::vector<std::uint8_t>& values, std::uint8_t needle) {
  const auto buf = word_padded(values, needle);
  return byte_match_mask(buf.data(), static_cast<std::uint32_t>(values.size()), needle);
}

TEST(ByteMatchMask, EveryCountEveryPosition) {
  for (std::uint32_t count = 1; count <= kMaxAssociativity; ++count) {
    for (std::uint32_t pos = 0; pos < count; ++pos) {
      std::vector<std::uint8_t> v(count, 0x11);
      v[pos] = 0xab;
      EXPECT_EQ(scan(v, 0xab), WayMask{1} << pos) << "count=" << count << " pos=" << pos;
      EXPECT_EQ(scan(v, 0xab), tag_match_mask(v.data(), count, std::uint8_t{0xab}));
    }
    // Absent needle: nothing matches, least of all the needle-filled overhang.
    EXPECT_EQ(scan(std::vector<std::uint8_t>(count, 0x11), 0xcd), 0U) << "count=" << count;
  }
}

// The borrow form of the zero-byte test marks the byte above a match when it
// differs from the needle only in bit 0; 0x00/0x01/0x80/0xff exercise the
// carry and sign edges of the exact form.
TEST(ByteMatchMask, NeighbourBytesAroundAMatch) {
  const std::uint8_t needles[] = {0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff};
  for (const std::uint8_t needle : needles) {
    const std::uint8_t neighbours[] = {0x00, 0x01, 0x80, 0xff,
                                       static_cast<std::uint8_t>(needle ^ 0x01)};
    for (const std::uint8_t neighbour : neighbours) {
      for (std::uint32_t count = 1; count <= kMaxAssociativity; ++count) {
        for (std::uint32_t pos = 0; pos < count; ++pos) {
          std::vector<std::uint8_t> v(count, neighbour);
          v[pos] = needle;
          EXPECT_EQ(scan(v, needle), tag_match_mask(v.data(), count, needle))
              << "needle=" << int{needle} << " neighbour=" << int{neighbour}
              << " count=" << count << " pos=" << pos;
        }
      }
    }
  }
}

TEST(ByteMatchMask, FuzzAgainstTagMatchMask) {
  Rng rng(0x51);
  for (int iter = 0; iter < 20'000; ++iter) {
    const auto count = static_cast<std::uint32_t>(rng.next_in(1, kMaxAssociativity));
    const auto needle = static_cast<std::uint8_t>(rng.next_below(256));
    // Alphabet of the needle and its one-bit neighbours: dense matches and
    // dense near-misses in every word.
    const std::uint8_t alphabet[] = {needle, static_cast<std::uint8_t>(needle ^ 0x01),
                                     static_cast<std::uint8_t>(needle ^ 0x80),
                                     static_cast<std::uint8_t>(needle + 1)};
    std::vector<std::uint8_t> v(count);
    for (auto& x : v) x = alphabet[rng.next_below(4)];
    EXPECT_EQ(scan(v, needle), tag_match_mask(v.data(), count, needle))
        << "count=" << count << " iter=" << iter;
  }
}

/// Srrip::choose_victim against a per-way model: the lowest allowed way at
/// RRPV 3, aging the allowed ways by one until one exists. Associativities
/// below 8 make the scan's whole-word loads straddle sets (and, for the last
/// set, reach the RRPV array's padding).
TEST(ByteMatchMask, SrripVictimMatchesPerWayModel) {
  for (const std::uint32_t ways : {2U, 4U, 8U, 32U, 64U}) {
    const cache::Geometry geo{.size_bytes = 16 * ways * 64, .associativity = ways,
                              .line_bytes = 64};
    cache::Srrip srrip(geo);
    Rng rng(ways);
    for (int step = 0; step < 20'000; ++step) {
      const std::uint64_t set = rng.next_below(geo.sets());
      const auto way = static_cast<std::uint32_t>(rng.next_below(ways));
      if (rng.next_below(3) != 0) {
        srrip.on_hit(set, way, full_way_mask(ways));
        continue;
      }
      WayMask allowed = rng.next_u64() & full_way_mask(ways);
      if (allowed == 0) allowed = WayMask{1} << way;

      std::vector<std::uint8_t> rrpv(ways);
      for (std::uint32_t w = 0; w < ways; ++w) rrpv[w] = srrip.rrpv(set, w);
      std::uint32_t want = ways;
      while (want == ways) {
        for (std::uint32_t w = 0; w < ways && want == ways; ++w) {
          if (mask_test(allowed, w) && rrpv[w] == cache::Srrip::kMaxRrpv) want = w;
        }
        if (want == ways) {
          for (std::uint32_t w = 0; w < ways; ++w)
            rrpv[w] = static_cast<std::uint8_t>(rrpv[w] + (mask_test(allowed, w) ? 1 : 0));
        }
      }

      ASSERT_EQ(srrip.choose_victim(set, allowed), want)
          << "ways=" << ways << " step=" << step;
      for (std::uint32_t w = 0; w < ways; ++w)
        ASSERT_EQ(srrip.rrpv(set, w), rrpv[w]) << "ways=" << ways << " way=" << w;
      srrip.on_fill(set, want, allowed);
    }
  }
}

}  // namespace
}  // namespace plrupart
