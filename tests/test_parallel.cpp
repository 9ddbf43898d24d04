#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

namespace plrupart {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelFor, SingleThreadFallbackIsSequential) {
  std::vector<std::size_t> order;
  parallel_for(
      10, [&](std::size_t i) { order.push_back(i); }, /*threads=*/1);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, MoreThreadsThanWorkIsFine) {
  std::atomic<int> sum{0};
  parallel_for(
      3, [&](std::size_t i) { sum += static_cast<int>(i); }, /*threads=*/64);
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelFor, ZeroItemsIgnoresExplicitThreadCount) {
  // n == 0 must return before any pool is built, whatever `threads` says.
  parallel_for(
      0, [](std::size_t) { FAIL() << "body must not run"; }, /*threads=*/64);
}

TEST(ParallelFor, TemplatedOverloadAcceptsMoveOnlyCallable) {
  // parallel_for takes the callable by forwarding reference and never copies
  // it, so a move-only closure is accepted.
  std::atomic<int> sum{0};
  auto step = std::make_unique<int>(1);
  parallel_for(
      100, [&sum, owned = std::move(step)](std::size_t) { sum.fetch_add(*owned); },
      /*threads=*/4);
  EXPECT_EQ(sum.load(), 100);
}

TEST(ParallelFor, MoreThreadsThanItemsRunsEachItemOnce) {
  constexpr std::size_t n = 5;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(
      n, [&](std::size_t i) { hits[i].fetch_add(1); }, /*threads=*/32);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, WorkerExceptionDoesNotLoseCompletedWork) {
  // Indices that ran before the failure was observed must have fully
  // completed (joined) by the time the exception reaches the caller.
  constexpr std::size_t n = 300;
  std::atomic<std::size_t> completed{0};
  try {
    parallel_for(
        n,
        [&](std::size_t i) {
          if (i == 150) throw std::runtime_error("halt");
          completed.fetch_add(1, std::memory_order_relaxed);
        },
        /*threads=*/4);
    FAIL() << "exception must propagate";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LE(completed.load(), n - 1);
}

TEST(DefaultParallelism, AtLeastOne) { EXPECT_GE(default_parallelism(), 1U); }

TEST(DefaultParallelism, FollowsTheCpuAffinityOfAForkedChild) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(default_parallelism(), static_cast<std::size_t>(CPU_COUNT(&mask)));
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &mask)) ++first_cpu;

  // The child narrows only its own affinity, to one CPU: the budget is then
  // one thread, held by a replay loop, so a timed job would start no helper.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first_cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) ::_exit(1);
    if (default_parallelism() != 1) ::_exit(2);
    if (BusyThreads::try_one().held() != 1) ::_exit(3);
    const BusyThreads replay(1);
    if (BusyThreads::try_one().held() != 0) ::_exit(4);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: setaffinity failed, 2: default_parallelism() != 1, 3: no free slot "
         "with nothing busy, 4: a helper slot with the one CPU busy";
  EXPECT_EQ(default_parallelism(), static_cast<std::size_t>(CPU_COUNT(&mask)))
      << "the parent's affinity must be untouched";
}

}  // namespace
}  // namespace plrupart
