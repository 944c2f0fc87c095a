#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace vrddram {
namespace {

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ResultsLandInIndexedSlots) {
  ThreadPool pool(3);
  std::vector<std::size_t> out(513, 0);
  pool.ParallelFor(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, OversubscriptionCompletes) {
  // Far more workers than cores (and than chunks): everything still
  // runs exactly once and the pool drains cleanly.
  ThreadPool pool(16);
  std::atomic<std::uint64_t> sum{0};
  constexpr std::size_t kN = 1000;
  pool.ParallelFor(kN, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> calls{0};
    pool.ParallelFor(17, [&](std::size_t) { calls.fetch_add(1); });
    ASSERT_EQ(calls.load(), 17);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](std::size_t i) {
                         if (i == 42) {
                           throw std::runtime_error("task 42 failed");
                         }
                       }),
      std::runtime_error);
  // The pool survives a failed job and runs the next one normally.
  std::atomic<int> calls{0};
  pool.ParallelFor(8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, SmallestIndexExceptionWinsDeterministically) {
  // All four tasks rendezvous on a spin barrier before any of them
  // throws (pool(4) with n = 4 gives one single-index chunk per
  // worker, so all four genuinely run concurrently). Whatever the
  // completion race, the rethrown exception must be task 0's — the
  // smallest index — not whichever thread reported first.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    std::atomic<int> arrived{0};
    try {
      pool.ParallelFor(4, [&](std::size_t i) {
        arrived.fetch_add(1);
        while (arrived.load() < 4) {
        }
        throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 0") << "round " << round;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A task that fans out on its own pool must not deadlock; the inner
  // loop runs inline on the worker.
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(5, [&](std::size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 20);
}

TEST(ThreadPoolTest, DefaultWorkerCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultWorkerCount(), 1u);
  ThreadPool pool;  // workers = 0 -> DefaultWorkerCount()
  EXPECT_EQ(pool.worker_count(), ThreadPool::DefaultWorkerCount());
}

}  // namespace
}  // namespace vrddram
