#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "plrupart/common/assert.hpp"

namespace plrupart {
namespace {

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8ULL);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-9);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0ULL);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(GeoMean, MatchesClosedForm) {
  GeoMean g;
  g.add(2.0);
  g.add(8.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  EXPECT_THROW(g.add(0.0), InvariantError);
}

TEST(GeoMean, EmptyIsZero) {
  GeoMean g;
  EXPECT_EQ(g.value(), 0.0);
}

}  // namespace
}  // namespace plrupart
