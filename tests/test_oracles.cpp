// Analytical oracles on generated streams.
//
//  * LRU stack property: with no set sampling, an LRU-ATD profiler's miss
//    curve at w ways equals the misses of a standalone w-way LRU cache with
//    the same set count fed the same per-core stream, for every w.
//  * Minimum life-span (Kahlen & Reineke): a policy always keeps the L most
//    recently used distinct lines of a set, so no access at true stack
//    distance <= L misses. L = A for LRU, log2 A + 1 for tree-PLRU, 2 for NRU
//    and 1 for SRRIP. Random has no such bound and is not checked.
//  * Tree-PLRU: cache::TreePlru's packed-word promote and victim walks agree,
//    step for step, with an independent recursive model over heap-indexed
//    nodes 1..2A-1.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "plrupart/cache/tree_plru.hpp"
#include "plrupart/common/rng.hpp"
#include "plrupart/core/atd.hpp"
#include "plrupart/core/partitioned_cache.hpp"

namespace plrupart {
namespace {

using cache::ReplacementKind;

// --- LRU miss curve against standalone w-way caches -------------------------

TEST(LruOracle, MissCurveEqualsStandaloneLruAtEveryWidth) {
  constexpr std::uint32_t kSets = 16;
  constexpr std::uint32_t kLine = 64;
  constexpr int kAccesses = 40000;
  for (const std::uint32_t assoc : {4U, 8U, 16U}) {
    for (const std::uint32_t cores : {2U, 3U, 4U, 8U}) {
      if (cores > assoc) continue;
      const cache::Geometry geo{
          .size_bytes = std::uint64_t{kSets} * assoc * kLine,
          .associativity = assoc,
          .line_bytes = kLine};
      auto cfg = core::CpaConfig::from_acronym("M-L", cores, geo);
      cfg.sampling_ratio = 1;
      cfg.interval_cycles = kAccesses + 1;  // no boundary, hence no decay
      core::PartitionedCacheSystem sys(cfg);

      // One standalone LRU cache per (core, power-of-two width).
      std::vector<std::uint32_t> widths;
      for (std::uint32_t w = 1; w <= assoc; w *= 2) widths.push_back(w);
      std::vector<std::vector<cache::SetAssocCache>> alone(cores);
      for (auto& per_core : alone) {
        per_core.reserve(widths.size());
        for (const std::uint32_t w : widths) {
          const cache::Geometry g{.size_bytes = std::uint64_t{kSets} * w * kLine,
                                  .associativity = w,
                                  .line_bytes = kLine};
          per_core.emplace_back(g, ReplacementKind::kLru, 1,
                                cache::EnforcementMode::kNone);
        }
      }

      // Each core draws lines from its own region; the tag range (2A per set)
      // spreads stack distances across every width and beyond A.
      Rng rng(derive_seed(0x0c1e, assoc * 16 + cores));
      for (int i = 0; i < kAccesses; ++i) {
        const auto c = static_cast<cache::CoreId>(rng.next_below(cores));
        const std::uint64_t line = (std::uint64_t{c} << 32) |
                                   (rng.next_below(2 * assoc) * kSets) |
                                   rng.next_below(kSets);
        const cache::Addr addr = line * kLine;
        sys.access(c, addr, false, static_cast<std::uint64_t>(i));
        for (auto& cache : alone[c]) cache.access(0, addr);
      }
      ASSERT_EQ(sys.controller()->history().size(), 0U);

      for (std::uint32_t c = 0; c < cores; ++c) {
        const core::MissCurve curve = sys.profiler(c).curve();
        for (std::size_t k = 0; k < widths.size(); ++k) {
          EXPECT_EQ(curve.misses(widths[k]),
                    static_cast<double>(alone[c][k].stats().per_core[0].misses))
              << "A=" << assoc << " cores=" << cores << " core " << c
              << " w=" << widths[k];
        }
      }
    }
  }
}

// --- Minimum life-span ------------------------------------------------------

/// Shadow LRU stack of one set: reports each access's true stack distance
/// (1 = re-reference of the MRU line), or 0 for a line outside the `depth`
/// most recent distinct lines.
class ShadowStack {
 public:
  explicit ShadowStack(std::size_t depth) : depth_(depth) {}

  std::uint32_t access(std::uint64_t tag) {
    std::uint32_t distance = 0;
    if (auto it = std::find(stack_.begin(), stack_.end(), tag); it != stack_.end()) {
      distance = static_cast<std::uint32_t>(it - stack_.begin()) + 1;
      stack_.erase(it);
    }
    stack_.insert(stack_.begin(), tag);
    if (stack_.size() > depth_) stack_.pop_back();
    return distance;
  }

  /// Next tag of a generated single-set stream: half the time a re-reference
  /// at a distance in [1, 2A] skewed towards the MRU end (uniform within a
  /// uniformly drawn span), otherwise a uniform draw from 4A tags.
  std::uint64_t next_tag(Rng& rng, std::uint32_t assoc) const {
    if (!stack_.empty() && rng.next_below(2) == 0) {
      const auto span = std::min<std::uint64_t>(stack_.size(), 2 * assoc);
      return stack_[rng.next_below(rng.next_below(span) + 1)];
    }
    return rng.next_below(4 * assoc);
  }

 private:
  std::size_t depth_;
  std::vector<std::uint64_t> stack_;
};

std::uint32_t min_life_span(ReplacementKind kind, std::uint32_t assoc) {
  switch (kind) {
    case ReplacementKind::kLru:
      return assoc;
    case ReplacementKind::kTreePlru:
      return ilog2_exact(assoc) + 1;
    case ReplacementKind::kNru:
      return 2;
    case ReplacementKind::kSrrip:
      return 1;
    case ReplacementKind::kRandom:
      break;
  }
  return 0;
}

/// Tallies one core's accesses against its bound L.
struct LifeSpanTally {
  std::uint32_t bound = 0;
  std::uint64_t within_bound = 0;  ///< accesses at distance <= L
  std::uint64_t violations = 0;    ///< ... of which missed
  std::uint64_t misses = 0;

  void record(std::uint32_t distance, bool hit) {
    misses += hit ? 0 : 1;
    if (distance == 0 || distance > bound) return;
    ++within_bound;
    violations += hit ? 0 : 1;
  }

  void expect_held(const std::string& what) const {
    EXPECT_EQ(violations, 0U) << what << ": " << violations << " of " << within_bound
                              << " accesses within distance " << bound << " missed";
    // Not vacuous: the stream both reaches the bound and evicts.
    EXPECT_GT(within_bound, 500U) << what;
    EXPECT_GT(misses, 500U) << what;
  }
};

constexpr int kLifeSpanAccesses = 40000;

struct LifeSpanCase {
  ReplacementKind kind;
  std::uint32_t assoc;
};

void PrintTo(const LifeSpanCase& c, std::ostream* os) {
  *os << cache::to_string(c.kind) << " A=" << c.assoc;
}

class MinLifeSpan : public ::testing::TestWithParam<LifeSpanCase> {
 protected:
  [[nodiscard]] cache::Geometry one_set(std::uint32_t assoc) const {
    return cache::Geometry{.size_bytes = std::uint64_t{assoc} * 64,
                           .associativity = assoc,
                           .line_bytes = 64};
  }
  [[nodiscard]] std::string label() const { return ::testing::PrintToString(GetParam()); }
};

TEST_P(MinLifeSpan, SetAssocCacheUnpartitioned) {
  const auto [kind, assoc] = GetParam();
  cache::SetAssocCache cache(one_set(assoc), kind, 1, cache::EnforcementMode::kNone, 11);
  ShadowStack shadow(2 * assoc + 1);
  LifeSpanTally tally{.bound = min_life_span(kind, assoc)};
  Rng rng(derive_seed(0x11fe, assoc));
  for (int i = 0; i < kLifeSpanAccesses; ++i) {
    const std::uint64_t tag = shadow.next_tag(rng, assoc);
    const bool hit = cache.access(0, tag * 64).hit;
    tally.record(shadow.access(tag), hit);
  }
  tally.expect_held(label());
}

TEST_P(MinLifeSpan, SetAssocCacheAlignedHalfMasks) {
  // Two cores, each confined to an aligned A/2-way block; each core's own
  // stream must keep the bound of an A/2-way cache while the other core runs.
  const auto [kind, assoc] = GetParam();
  const std::uint32_t half = assoc / 2;
  cache::SetAssocCache cache(one_set(assoc), kind, 2, cache::EnforcementMode::kWayMasks,
                             12);
  cache.set_way_mask(0, way_range_mask(half, half));
  cache.set_way_mask(1, way_range_mask(0, half));
  std::vector<ShadowStack> shadow(2, ShadowStack(2 * half + 1));
  std::vector<LifeSpanTally> tally(2, LifeSpanTally{.bound = min_life_span(kind, half)});
  Rng rng(derive_seed(0x12fe, assoc));
  for (int i = 0; i < 2 * kLifeSpanAccesses; ++i) {
    const auto c = static_cast<cache::CoreId>(rng.next_below(2));
    const std::uint64_t tag = shadow[c].next_tag(rng, half);
    const bool hit = cache.access(c, ((std::uint64_t{c} << 32) | tag) * 64).hit;
    tally[c].record(shadow[c].access(tag), hit);
  }
  for (std::uint32_t c = 0; c < 2; ++c)
    tally[c].expect_held(label() + " core " + std::to_string(c));
}

TEST_P(MinLifeSpan, AtdWithoutSampling) {
  const auto [kind, assoc] = GetParam();
  core::Atd atd(one_set(assoc), kind, /*sampling_ratio=*/1, 13);
  ShadowStack shadow(2 * assoc + 1);
  LifeSpanTally tally{.bound = min_life_span(kind, assoc)};
  Rng rng(derive_seed(0x13fe, assoc));
  for (int i = 0; i < kLifeSpanAccesses; ++i) {
    const std::uint64_t tag = shadow.next_tag(rng, assoc);
    const auto obs = atd.access(tag);  // one set: the line address is the tag
    ASSERT_TRUE(obs.has_value());
    tally.record(shadow.access(tag), obs->hit);
  }
  tally.expect_held(label());
}

std::vector<LifeSpanCase> life_span_cases() {
  std::vector<LifeSpanCase> cases;
  for (const auto kind : {ReplacementKind::kLru, ReplacementKind::kNru,
                          ReplacementKind::kTreePlru, ReplacementKind::kSrrip})
    for (const std::uint32_t assoc : {4U, 8U, 16U, 32U}) cases.push_back({kind, assoc});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByWays, MinLifeSpan, ::testing::ValuesIn(life_span_cases()),
    [](const ::testing::TestParamInfo<LifeSpanCase>& param_info) {
      return cache::to_string(param_info.param.kind) + "_" +
             std::to_string(param_info.param.assoc) + "way";
    });

// --- Tree-PLRU against a recursive model ---------------------------------------

/// One set of tree-PLRU, written from the definition: node k (1..A-1) has
/// children 2k (the upper half of its ways) and 2k+1 (the lower half); leaves
/// A..2A-1 are ways 0..A-1. A node bit of 1 records that the MRU line is in
/// the upper child, so the victim search descends into the lower one.
class RecursiveTreePlru {
 public:
  explicit RecursiveTreePlru(std::uint32_t ways) : ways_(ways), bit_(ways, 0) {}

  void promote(std::uint32_t way) { promote(1, 0, ways_, way); }

  /// Victim among `allowed`: descend into the only child holding an allowed
  /// way, else follow the node bit.
  [[nodiscard]] std::uint32_t victim(std::uint64_t allowed) const {
    return victim(1, 0, ways_, allowed);
  }

  /// Victim when level l's node bit is overridden by up (0) / down (1).
  [[nodiscard]] std::uint32_t victim(const cache::ForceVectors& force) const {
    return forced(1, 0, force);
  }

  /// The node bits on `way`'s root-to-leaf path, root first.
  [[nodiscard]] std::uint32_t path_bits(std::uint32_t way) const {
    return path_bits(1, 0, ways_, way, 0);
  }

 private:
  static std::uint64_t range(std::uint32_t lo, std::uint32_t n) {
    return n == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1) << lo;
  }

  void promote(std::uint32_t node, std::uint32_t lo, std::uint32_t span,
               std::uint32_t way) {
    if (span == 1) return;
    const std::uint32_t half = span / 2;
    const bool upper = way < lo + half;
    bit_[node] = upper ? 1 : 0;
    if (upper) {
      promote(2 * node, lo, half, way);
    } else {
      promote(2 * node + 1, lo + half, half, way);
    }
  }

  [[nodiscard]] std::uint32_t victim(std::uint32_t node, std::uint32_t lo,
                                     std::uint32_t span, std::uint64_t allowed) const {
    if (span == 1) return node - ways_;
    const std::uint32_t half = span / 2;
    const bool upper_allowed = (allowed & range(lo, half)) != 0;
    const bool lower_allowed = (allowed & range(lo + half, half)) != 0;
    const bool down = !upper_allowed || (lower_allowed && bit_[node] == 1);
    return down ? victim(2 * node + 1, lo + half, half, allowed)
                : victim(2 * node, lo, half, allowed);
  }

  [[nodiscard]] std::uint32_t forced(std::uint32_t node, std::uint32_t level,
                                     const cache::ForceVectors& force) const {
    if (node >= ways_) return node - ways_;
    std::uint32_t dir = bit_[node];
    if ((force.up >> level) & 1U) dir = 0;
    if ((force.down >> level) & 1U) dir = 1;
    return forced(2 * node + dir, level + 1, force);
  }

  [[nodiscard]] std::uint32_t path_bits(std::uint32_t node, std::uint32_t lo,
                                        std::uint32_t span, std::uint32_t way,
                                        std::uint32_t acc) const {
    if (span == 1) return acc;
    const std::uint32_t half = span / 2;
    acc = (acc << 1) | bit_[node];
    return way < lo + half ? path_bits(2 * node, lo, half, way, acc)
                           : path_bits(2 * node + 1, lo + half, half, way, acc);
  }

  std::uint32_t ways_;
  std::vector<std::uint32_t> bit_;  // internal nodes 1..A-1; index 0 unused
};

TEST(TreePlruOracle, AgreesWithRecursiveModelOnRandomStreams) {
  constexpr std::uint32_t kSets = 4;
  constexpr int kSteps = 20000;
  for (std::uint32_t assoc = 2; assoc <= 64; assoc *= 2) {
    const cache::Geometry geo{.size_bytes = std::uint64_t{kSets} * assoc * 64,
                              .associativity = assoc,
                              .line_bytes = 64};
    cache::TreePlru tree(geo);
    std::vector<RecursiveTreePlru> model(kSets, RecursiveTreePlru(assoc));
    const WayMask full = full_way_mask(assoc);
    Rng rng(derive_seed(0x7ee, assoc));
    for (int step = 0; step < kSteps; ++step) {
      const std::uint64_t set = rng.next_below(kSets);
      auto& m = model[set];
      const std::string at =
          "A=" + std::to_string(assoc) + " step " + std::to_string(step);

      ASSERT_EQ(tree.choose_victim(set, full), m.victim(full)) << at;

      const auto first = static_cast<std::uint32_t>(rng.next_below(assoc));
      const auto count = 1 + static_cast<std::uint32_t>(rng.next_below(assoc - first));
      const WayMask contiguous = way_range_mask(first, count);
      const std::uint32_t masked = tree.choose_victim(set, contiguous);
      ASSERT_EQ(masked, m.victim(contiguous)) << at << " mask " << contiguous;

      const std::uint32_t size = 1U << rng.next_below(tree.levels() + 1);
      const auto base = static_cast<std::uint32_t>(rng.next_below(assoc / size)) * size;
      const WayMask block = way_range_mask(base, size);
      const auto force = tree.derive_force_vectors(block);
      ASSERT_TRUE(force.has_value()) << at;
      const std::uint32_t steered = tree.choose_victim_with_vectors(set, *force);
      ASSERT_EQ(steered, m.victim(*force)) << at << " block " << block;
      ASSERT_EQ(steered, m.victim(block)) << at << " block " << block;

      for (std::uint32_t way = 0; way < assoc; ++way)
        ASSERT_EQ(tree.path_bits(set, way), m.path_bits(way)) << at << " way " << way;

      // Advance both: a hit on any way, or a fill of one of the victims.
      std::uint32_t way = 0;
      switch (rng.next_below(3)) {
        case 0:
          way = static_cast<std::uint32_t>(rng.next_below(assoc));
          tree.on_hit(set, way, full);
          break;
        case 1:
          way = masked;
          tree.on_fill(set, way, contiguous);
          break;
        default:
          way = steered;
          tree.on_fill(set, way, block);
          break;
      }
      m.promote(way);
    }
  }
}

}  // namespace
}  // namespace plrupart
