// Parameterized conformance suite: every replacement policy must satisfy the
// contract SetAssocCache relies on, across geometries. The suite drives each
// policy through the test-local virtual seam (support/virtual_policy.hpp), and
// checks that SetAssocCache holds the policy class each ReplacementKind names.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <variant>

#include "plrupart/cache/cache.hpp"
#include "plrupart/common/rng.hpp"
#include "support/virtual_policy.hpp"

namespace plrupart::cache {
namespace {

using testing::make_virtual_policy;
using testing::VirtualPolicy;

using Param = std::tuple<ReplacementKind, std::uint32_t /*ways*/, std::uint64_t /*sets*/>;

class ReplacementConformance : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto [kind, ways, sets] = GetParam();
    geo_ = Geometry{.size_bytes = sets * ways * 64,
                    .associativity = ways,
                    .line_bytes = 64};
    policy_ = make_virtual_policy(kind, geo_, /*seed=*/77);
    all_ = policy_->shape().all_ways();
  }

  Geometry geo_{};
  std::unique_ptr<VirtualPolicy> policy_;
  WayMask all_ = 0;
};

// A policy does not report its kind; SetAssocCacheHoldsPolicyOfKind below
// checks the kind at the cache level.
TEST_P(ReplacementConformance, ReportsItsKindAndShape) {
  EXPECT_EQ(policy_->shape().ways(), geo_.associativity);
  EXPECT_EQ(policy_->shape().sets(), geo_.sets());
  EXPECT_EQ(all_, full_way_mask(geo_.associativity));
}

TEST_P(ReplacementConformance, VictimAlwaysInsideAllowedMask) {
  Rng rng(123);
  for (int i = 0; i < 4000; ++i) {
    const auto set = rng.next_below(geo_.sets());
    const WayMask allowed =
        rng.next_below(full_way_mask(geo_.associativity)) + 1;
    const auto victim = policy_->choose_victim(set, allowed);
    ASSERT_LT(victim, geo_.associativity);
    ASSERT_TRUE(mask_test(allowed, victim));
  }
}

TEST_P(ReplacementConformance, SingletonMaskForcesTheWay) {
  Rng rng(5);
  for (std::uint32_t w = 0; w < geo_.associativity; ++w) {
    const auto set = rng.next_below(geo_.sets());
    EXPECT_EQ(policy_->choose_victim(set, WayMask{1} << w), w);
  }
}

TEST_P(ReplacementConformance, EstimateWithinStackBounds) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const auto set = rng.next_below(geo_.sets());
    const auto way = static_cast<std::uint32_t>(rng.next_below(geo_.associativity));
    const auto est = policy_->estimate_position(set, way);
    ASSERT_GE(est.lo, 1U);
    ASSERT_LE(est.hi, geo_.associativity);
    ASSERT_LE(est.lo, est.hi);
    ASSERT_GE(est.point, est.lo);
    ASSERT_LE(est.point, est.hi);
    if (rng.next_bool(0.5))
      policy_->on_hit(set, way, all_);
    else
      policy_->on_fill(set, way, all_);
  }
}

TEST_P(ReplacementConformance, DeterministicAcrossInstances) {
  auto other = make_virtual_policy(std::get<0>(GetParam()), geo_, /*seed=*/77);
  Rng ops(321);
  for (int i = 0; i < 3000; ++i) {
    const auto set = ops.next_below(geo_.sets());
    if (ops.next_bool(0.6)) {
      const auto way = static_cast<std::uint32_t>(ops.next_below(geo_.associativity));
      policy_->on_hit(set, way, all_);
      other->on_hit(set, way, all_);
    } else {
      const WayMask allowed = ops.next_below(full_way_mask(geo_.associativity)) + 1;
      ASSERT_EQ(policy_->choose_victim(set, allowed), other->choose_victim(set, allowed));
    }
  }
}

TEST_P(ReplacementConformance, ResetRestoresDeterminism) {
  Rng warm(55);
  for (int i = 0; i < 500; ++i) {
    policy_->on_hit(warm.next_below(geo_.sets()),
                    static_cast<std::uint32_t>(warm.next_below(geo_.associativity)),
                    all_);
  }
  policy_->reset();
  auto fresh = make_virtual_policy(std::get<0>(GetParam()), geo_, /*seed=*/77);
  Rng ops(66);
  for (int i = 0; i < 1000; ++i) {
    const auto set = ops.next_below(geo_.sets());
    const WayMask allowed = ops.next_below(full_way_mask(geo_.associativity)) + 1;
    ASSERT_EQ(policy_->choose_victim(set, allowed), fresh->choose_victim(set, allowed));
    const auto way = static_cast<std::uint32_t>(ops.next_below(geo_.associativity));
    policy_->on_fill(set, way, all_);
    fresh->on_fill(set, way, all_);
  }
}

TEST_P(ReplacementConformance, EmptyMaskIsRejected) {
  EXPECT_THROW((void)policy_->choose_victim(0, WayMask{0}), InvariantError);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return to_string(std::get<0>(info.param)) + "_w" +
         std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAndShapes, ReplacementConformance,
    ::testing::Combine(::testing::Values(ReplacementKind::kLru, ReplacementKind::kNru,
                                         ReplacementKind::kTreePlru,
                                         ReplacementKind::kRandom,
                                         ReplacementKind::kSrrip),
                       ::testing::Values(2U, 4U, 16U),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{64})),
    param_name);

/// Whether the cache holds the policy class `kind` names, spelled out class by
/// class so the check does not lean on the variant's own ordering.
bool holds_policy_named_by(const SetAssocCache& c, ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::holds_alternative<TrueLru>(c.policy());
    case ReplacementKind::kNru:
      return std::holds_alternative<Nru>(c.policy());
    case ReplacementKind::kTreePlru:
      return std::holds_alternative<TreePlru>(c.policy());
    case ReplacementKind::kRandom:
      return std::holds_alternative<RandomRepl>(c.policy());
    case ReplacementKind::kSrrip:
      return std::holds_alternative<Srrip>(c.policy());
  }
  return false;
}

std::string kind_name(const ::testing::TestParamInfo<ReplacementKind>& info) {
  return to_string(info.param);
}

class SetAssocCacheHoldsPolicyOfKind : public ::testing::TestWithParam<ReplacementKind> {};

TEST_P(SetAssocCacheHoldsPolicyOfKind, HeldAlternativeMatchesKind) {
  const ReplacementKind kind = GetParam();
  const Geometry geo{.size_bytes = 64 * 16 * 64, .associativity = 16, .line_bytes = 64};
  const SetAssocCache c(geo, kind, 2, EnforcementMode::kWayMasks);
  EXPECT_TRUE(holds_policy_named_by(c, kind));
  EXPECT_EQ(c.replacement(), kind);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SetAssocCacheHoldsPolicyOfKind,
                         ::testing::Values(ReplacementKind::kLru, ReplacementKind::kNru,
                                           ReplacementKind::kTreePlru,
                                           ReplacementKind::kRandom,
                                           ReplacementKind::kSrrip),
                         kind_name);

}  // namespace
}  // namespace plrupart::cache
