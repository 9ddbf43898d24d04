// IPC-objective partitioning (FlexDCP-style extension).
#include "plrupart/core/ipc_policy.hpp"

#include <gtest/gtest.h>

#include "plrupart/common/rng.hpp"

namespace plrupart::core {
namespace {

IpcModel chaser() {
  // Pointer chaser: fully exposed memory latency, low base IPC.
  return IpcModel{.instr_per_l2_access = 8.0,
                  .base_ipc = 1.2,
                  .l2_hit_penalty = 11,
                  .mem_penalty = 250,
                  .stall_fraction = 0.95};
}

IpcModel streamer() {
  // Streaming core: high MLP hides most of each miss.
  return IpcModel{.instr_per_l2_access = 8.0,
                  .base_ipc = 2.5,
                  .l2_hit_penalty = 11,
                  .mem_penalty = 250,
                  .stall_fraction = 0.2};
}

MissCurve linear_curve(double start, double end, std::uint32_t ways = 8) {
  std::vector<double> v(ways + 1);
  for (std::uint32_t w = 0; w <= ways; ++w) {
    v[w] = start + (end - start) * static_cast<double>(w) / ways;
  }
  return MissCurve(std::move(v));
}

TEST(IpcModel, MoreWaysNeverHurt) {
  const auto m = chaser();
  const auto c = linear_curve(1000, 0);
  for (std::uint32_t w = 1; w < 8; ++w) {
    EXPECT_LE(m.predicted_ipc(c, w), m.predicted_ipc(c, w + 1) + 1e-12);
  }
}

TEST(IpcModel, ZeroTrafficMeansBaseIpc) {
  Sdh empty(8);
  const auto curve = MissCurve::from_sdh(empty);
  EXPECT_DOUBLE_EQ(streamer().predicted_ipc(curve, 4), 2.5);
}

TEST(IpcModel, ExposedLatencyCostsMore) {
  const auto c = linear_curve(1000, 500);
  auto exposed = chaser();
  auto hidden = chaser();
  hidden.stall_fraction = 0.1;
  EXPECT_LT(exposed.predicted_ipc(c, 4), hidden.predicted_ipc(c, 4));
}

TEST(IpcModel, ValidationRejectsNonsense) {
  IpcModel m;
  m.instr_per_l2_access = 0.0;
  EXPECT_THROW(m.validate(), InvariantError);
  m = IpcModel{};
  m.stall_fraction = 2.0;
  EXPECT_THROW(m.validate(), InvariantError);
}

TEST(IpcPartition, ThroughputFavorsTheLatencyTolerantThread) {
  // Identical miss curves, but thread 0 (chaser) pays full latency per miss
  // while thread 1 (streamer) hides it. Counter-intuitively, the throughput
  // objective gives the ways to the FAST thread: the chaser's IPC is so
  // latency-dominated that saved misses barely move it (dIPC = -I/cycles^2),
  // while the streamer converts the same savings into real retirement rate.
  // MinMisses, by construction, would see an exact tie here — this asymmetry
  // is precisely what the IPC objective adds.
  const auto c = linear_curve(1000, 0);
  const auto p =
      ipc_partition({c, c}, 8, {chaser(), streamer()}, IpcObjective::kThroughput);
  EXPECT_GT(p[1], p[0]);
  validate_partition(p, 8);
}

TEST(IpcPartition, HarmonicObjectiveIsMoreEgalitarian) {
  // A thread with a flat curve gets nothing under throughput; the harmonic
  // objective must not allocate it fewer ways than throughput does.
  const auto steep = linear_curve(2000, 0);
  const auto flat = linear_curve(500, 450);
  const std::vector<IpcModel> models{chaser(), chaser()};
  const auto p_thr = ipc_partition({steep, flat}, 8, models, IpcObjective::kThroughput);
  const auto p_hm = ipc_partition({steep, flat}, 8, models, IpcObjective::kHarmonicMean);
  EXPECT_GE(p_hm[1], p_thr[1]);
}

TEST(IpcPartition, IdenticalThreadsGetAnOptimumNoWorseThanEvenSplit) {
  // With identical threads the optimum need NOT be the even split: IPC as a
  // function of ways is convex for near-linear miss curves (cycles shrink
  // linearly, IPC = I/cycles), so the throughput sum can peak at an extreme
  // allocation. The DP must return something at least as good as both the
  // even split and its own mirror image.
  const auto c = linear_curve(1000, 0);
  const auto p =
      ipc_partition({c, c}, 8, {chaser(), chaser()}, IpcObjective::kThroughput);
  const auto total = [&](std::uint32_t w0, std::uint32_t w1) {
    return chaser().predicted_ipc(c, w0) + chaser().predicted_ipc(c, w1);
  };
  EXPECT_GE(total(p[0], p[1]), total(4, 4) - 1e-12);
  EXPECT_NEAR(total(p[0], p[1]), total(p[1], p[0]), 1e-12) << "objective is symmetric";
}

TEST(IpcPartition, WeightedSpeedupShieldsSlowThreadsBetterThanThroughput) {
  // A raw-throughput objective starves the slow, latency-bound thread (see
  // ThroughputFavorsTheLatencyTolerantThread); normalizing by each thread's
  // full-cache IPC must not make its allocation any worse.
  const auto c = linear_curve(1000, 0);
  const std::vector<IpcModel> models{chaser(), streamer()};
  const auto p_thr = ipc_partition({c, c}, 8, models, IpcObjective::kThroughput);
  const auto p_wsp = ipc_partition({c, c}, 8, models, IpcObjective::kWeightedSpeedup);
  EXPECT_GE(p_wsp[0], p_thr[0]);
}

TEST(IpcPartition, AllObjectivesProduceValidPartitionsOnRandomCurves) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<MissCurve> curves;
    std::vector<IpcModel> models;
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(rng.next_below(4));
    for (std::uint32_t i = 0; i < n; ++i) {
      std::vector<double> v(17);
      v[0] = 100 + rng.next_double() * 5000;
      for (std::uint32_t w = 1; w <= 16; ++w)
        v[w] = v[w - 1] * (0.6 + rng.next_double() * 0.4);
      curves.emplace_back(std::move(v));
      IpcModel m;
      m.stall_fraction = 0.2 + rng.next_double() * 0.7;
      m.base_ipc = 1.0 + rng.next_double() * 2.0;
      models.push_back(m);
    }
    for (const auto obj : {IpcObjective::kThroughput, IpcObjective::kWeightedSpeedup,
                           IpcObjective::kHarmonicMean}) {
      validate_partition(ipc_partition(curves, 16, models, obj), 16);
    }
  }
}

TEST(IpcPartition, ThroughputObjectiveIsDpOptimal) {
  // Exhaustive check on a small instance: the DP must find the partition
  // maximizing the predicted-IPC sum.
  const auto c0 = linear_curve(800, 100, 6);
  const auto c1 = linear_curve(400, 0, 6);
  const std::vector<IpcModel> models{chaser(), streamer()};
  const auto p = ipc_partition({c0, c1}, 6, models, IpcObjective::kThroughput);
  double best = -1.0;
  Partition best_p;
  for (std::uint32_t w0 = 1; w0 <= 5; ++w0) {
    const double total = models[0].predicted_ipc(c0, w0) +
                         models[1].predicted_ipc(c1, 6 - w0);
    if (total > best) {
      best = total;
      best_p = {w0, 6 - w0};
    }
  }
  EXPECT_EQ(p, best_p);
}

TEST(IpcPartition, RejectsMismatchedModelCount) {
  const auto c = linear_curve(100, 0);
  EXPECT_THROW((void)ipc_partition({c, c}, 8, {chaser()}, IpcObjective::kThroughput),
               InvariantError);
  EXPECT_THROW((void)ipc_partition({}, 8, {}, IpcObjective::kThroughput), InvariantError);
}

TEST(IpcPartition, ObjectiveNames) {
  EXPECT_EQ(to_string(IpcObjective::kThroughput), "throughput");
  EXPECT_EQ(to_string(IpcObjective::kWeightedSpeedup), "weighted-speedup");
  EXPECT_EQ(to_string(IpcObjective::kHarmonicMean), "harmonic-mean");
}

}  // namespace
}  // namespace plrupart::core
