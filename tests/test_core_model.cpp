#include "plrupart/sim/core_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/trace_workload.hpp"

namespace plrupart::sim {
namespace {

TEST(CoreModel, GapInstructionsAtBaseIpc) {
  CoreModel m(CoreParams{.base_ipc = 2.0});
  m.commit_gap(100);
  EXPECT_DOUBLE_EQ(m.cycles(), 50.0);
  EXPECT_EQ(m.instructions(), 100ULL);
  EXPECT_DOUBLE_EQ(m.ipc(), 2.0);
}

TEST(CoreModel, TableDrivenGapChargeIsBitEqualToTheDivision) {
  std::vector<double> ipcs = {workloads::trace_core_params().base_ipc};
  for (const auto& profile : workloads::catalog()) ipcs.push_back(profile.core.base_ipc);
  std::vector<std::uint32_t> gaps;
  for (std::uint32_t g = 0; g <= CoreModel::kGapTableSize + 4; ++g) gaps.push_back(g);
  gaps.push_back(0xffff'ffff);
  for (const double ipc : ipcs) {
    CoreModel m(CoreParams{.base_ipc = ipc});
    double cycles = 0.0;
    std::uint64_t instructions = 0;
    // Twice over, so the second pass adds each charge to a non-zero clock.
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::uint32_t g : gaps) {
        m.commit_gap(g);
        cycles += static_cast<double>(g) / ipc;
        instructions += g;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(m.cycles()),
                  std::bit_cast<std::uint64_t>(cycles))
            << "base_ipc " << ipc << " gap " << g << " pass " << pass;
        ASSERT_EQ(m.instructions(), instructions);
      }
    }
  }
}

TEST(CoreModel, L1HitCostsOnlyIssueSlot) {
  CoreModel m(CoreParams{.base_ipc = 1.0});
  m.commit_mem(AccessLevel::kL1);
  EXPECT_DOUBLE_EQ(m.cycles(), 1.0);
  EXPECT_EQ(m.instructions(), 1ULL);
}

TEST(CoreModel, MissPenaltiesScaledByStallFraction) {
  const CoreParams p{.base_ipc = 1.0,
                     .l2_hit_penalty = 11,
                     .mem_penalty = 250,
                     .stall_fraction = 0.5};
  CoreModel m(p);
  m.commit_mem(AccessLevel::kL2);
  EXPECT_DOUBLE_EQ(m.cycles(), 1.0 + 5.5);
  m.commit_mem(AccessLevel::kMemory);
  EXPECT_DOUBLE_EQ(m.cycles(), 1.0 + 5.5 + 1.0 + 125.0);
}

TEST(CoreModel, FullyOverlappedCoreIgnoresMisses) {
  CoreModel m(CoreParams{.base_ipc = 4.0, .stall_fraction = 0.0});
  for (int i = 0; i < 100; ++i) m.commit_mem(AccessLevel::kMemory);
  EXPECT_DOUBLE_EQ(m.ipc(), 4.0);
}

TEST(CoreModel, IpcDegradesWithMemoryBoundStreams) {
  CoreModel fast(CoreParams{.base_ipc = 2.0, .stall_fraction = 0.7});
  CoreModel slow(CoreParams{.base_ipc = 2.0, .stall_fraction = 0.7});
  for (int i = 0; i < 1000; ++i) {
    fast.commit_gap(3);
    fast.commit_mem(AccessLevel::kL1);
    slow.commit_gap(3);
    slow.commit_mem(AccessLevel::kMemory);
  }
  EXPECT_GT(fast.ipc(), 5.0 * slow.ipc()) << "250-cycle stalls dominate";
}

TEST(CoreParams, ValidationRejectsNonsense) {
  EXPECT_THROW(CoreParams{.base_ipc = 0.0}.validate(), InvariantError);
  EXPECT_THROW(CoreParams{.stall_fraction = 1.5}.validate(), InvariantError);
  EXPECT_THROW(CoreParams{.mem_penalty = -1.0}.validate(), InvariantError);
}

}  // namespace
}  // namespace plrupart::sim
