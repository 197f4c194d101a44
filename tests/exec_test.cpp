// Tests for the src/exec/ fork-join pool that fans the verifier's fault-set
// storms out over worker threads.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.h"

namespace ftspan {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](unsigned worker, std::size_t i) {
    EXPECT_LT(worker, 4u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ReusableAcrossRounds) {
  exec::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run(17, [&](unsigned, std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 17u * 16u / 2u);
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  exec::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::size_t count = 0;
  pool.run(25, [&](unsigned worker, std::size_t) {
    EXPECT_EQ(worker, 0u);
    ++count;
  });
  EXPECT_EQ(count, 25u);
}

TEST(ThreadPool, EmptyRunIsNoop) {
  exec::ThreadPool pool(2);
  pool.run(0, [&](unsigned, std::size_t) { FAIL() << "no task to run"; });
}

TEST(ThreadPool, PropagatesTaskException) {
  exec::ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      pool.run(64,
               [&](unsigned, std::size_t i) {
                 ran.fetch_add(1, std::memory_order_relaxed);
                 if (i == 13) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 64u);  // remaining tasks still ran
  // The pool stays usable after an exception.
  std::atomic<std::size_t> again{0};
  pool.run(8, [&](unsigned, std::size_t) {
    again.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), 8u);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(exec::resolve_threads(1), 1u);
  EXPECT_EQ(exec::resolve_threads(7), 7u);
  EXPECT_GE(exec::resolve_threads(0), 1u);  // auto: hardware concurrency
}

TEST(ThreadPool, EnsureWorkersGrowsButNeverShrinks) {
  exec::ThreadPool pool(2);
  EXPECT_EQ(pool.threads(), 2u);
  pool.ensure_workers(5);
  EXPECT_EQ(pool.threads(), 5u);
  pool.ensure_workers(3);  // no-op
  EXPECT_EQ(pool.threads(), 5u);
  std::atomic<std::size_t> sum{0};
  pool.run(40, [&](unsigned, std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 40u * 39u / 2u);
}

TEST(ThreadPool, MaxWorkersCapsParticipation) {
  exec::ThreadPool pool(8);
  constexpr std::size_t kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(
      kTasks,
      [&](unsigned worker, std::size_t i) {
        EXPECT_LT(worker, 3u);  // caller + workers 1..2 only
        hits[i].fetch_add(1, std::memory_order_relaxed);
      },
      /*max_workers=*/3);
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SharedPoolIsProcessWideAndGrows) {
  exec::ThreadPool& a = exec::shared_pool();
  exec::ThreadPool& b = exec::shared_pool();
  EXPECT_EQ(&a, &b);
  a.ensure_workers(3);
  EXPECT_GE(a.threads(), 3u);
  std::atomic<std::size_t> count{0};
  a.run(64, [&](unsigned, std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64u);
}

}  // namespace
}  // namespace ftspan
