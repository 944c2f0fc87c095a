#include "common/shards.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace vrddram {
namespace {

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

  // A shard that fans out again starts its own workers and completes.
  const auto nested = [](std::size_t i) {
    const std::vector<std::size_t> inner =
        MapShards(5, 2, [i](std::size_t j) { return i * 5 + j; });
    std::size_t sum = 0;
    for (const std::size_t v : inner) {
      sum += v;
    }
    return sum;
  };
  const std::vector<std::size_t> nested_serial = MapShards(4, 1, nested);
  EXPECT_EQ(nested_serial, (std::vector<std::size_t>{10, 35, 60, 85}));
  EXPECT_EQ(MapShards(4, 2, nested), nested_serial);
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
  // {shards, threads, workers used}: more threads than shards clamp to
  // the shard count; 16 workers on 1,000 shards oversubscribe the cores
  // and still run every shard exactly once.
  struct Case {
    std::size_t n, threads, workers;
  };
  for (const Case c : {Case{3, 16, 3}, Case{1, 8, 1}, Case{1000, 16, 16},
                       Case{10000, 4, 4}}) {
    std::vector<std::atomic<int>> hits(c.n);
    EXPECT_EQ(RunShards(c.n, c.threads,
                        [&](std::size_t i) { hits[i].fetch_add(1); }),
              c.workers);
    for (std::size_t i = 0; i < c.n; ++i) {
      ASSERT_EQ(hits[i].load(), 1)
          << "shard " << i << " of " << c.n << " on " << c.threads;
    }
  }
}

TEST(ShardExecutorTest, ZeroThreadsSelectsHardwareConcurrency) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  EXPECT_EQ(RunShards(kN, 0, [&](std::size_t i) { hits[i].fetch_add(1); }),
            std::min<std::size_t>(
                kN, std::max(1u, std::thread::hardware_concurrency())));
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

  // Two workers, same shards: indices are claimed in increasing order,
  // so shards 0-2 always run and shard 2's exception is rethrown, as in
  // the serial loop, however the workers interleave.
  for (int round = 0; round < 200; ++round) {
    std::vector<int> ran_parallel(6, 0);
    try {
      RunShards(6, 2, [&](std::size_t i) {
        ran_parallel[i] = 1;
        if (i == 2 || i == 4) {
          throw std::runtime_error("shard " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      ASSERT_STREQ(error.what(), "shard 2") << "round " << round;
    }
    ASSERT_EQ(ran_parallel[0] + ran_parallel[1] + ran_parallel[2], 3)
        << "round " << round;
  }

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
