#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
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

// --- The shard executor (RunShards / MapShards) ----------------------

TEST(ShardExecutorTest, ResultsMergeInIndexOrder) {
  const auto square = [](std::size_t i) { return i * i; };
  const std::vector<std::size_t> serial = MapShards(257, 1, square);
  ASSERT_EQ(serial.size(), 257u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], i * i);
  }
  for (const std::size_t threads : {2u, 3u, 8u}) {
    EXPECT_EQ(MapShards(257, threads, square), serial)
        << threads << " workers";
  }
}

TEST(ShardExecutorTest, ZeroShardsRunNothing) {
  std::atomic<int> calls{0};
  for (const std::size_t threads : {0u, 1u, 4u}) {
    EXPECT_EQ(RunShards(0, threads, [&](std::size_t) { calls.fetch_add(1); }),
              0u);
  }
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(MapShards(0, 4, [](std::size_t i) { return i; }).empty());
}

TEST(ShardExecutorTest, WorkersClampToShardCount) {
  std::vector<std::atomic<int>> hits(3);
  EXPECT_EQ(RunShards(3, 16, [&](std::size_t i) { hits[i].fetch_add(1); }),
            3u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
  }
  EXPECT_EQ(RunShards(1, 8, [](std::size_t) {}), 1u);
}

TEST(ShardExecutorTest, ZeroThreadsSelectsHardwareConcurrency) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  EXPECT_EQ(RunShards(kN, 0, [&](std::size_t i) { hits[i].fetch_add(1); }),
            std::min(kN, ThreadPool::DefaultWorkerCount()));
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "shard " << i;
  }
}

TEST(ShardExecutorTest, SmallestThrowingIndexIsRethrown) {
  // Serial path: shards run in index order, so shard 2 throws first and
  // the later shards never run.
  std::vector<int> ran(6, 0);
  try {
    RunShards(6, 1, [&](std::size_t i) {
      ran[i] = 1;
      if (i == 2 || i == 4) {
        throw std::runtime_error("shard " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "shard 2");
  }
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 0, 0, 0}));

  // Parallel path: all four shards rendezvous before any throws, so
  // every one of them throws; shard 0's exception must win whatever
  // the completion race.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> arrived{0};
    try {
      RunShards(4, 4, [&](std::size_t i) {
        arrived.fetch_add(1);
        while (arrived.load() < 4) {
        }
        throw std::runtime_error("shard " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "shard 0") << "round " << round;
    }
  }
}

}  // namespace
}  // namespace vrddram
