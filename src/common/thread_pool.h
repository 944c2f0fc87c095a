/**
 * @file
 * Work-stealing thread pool and the one shard executor on top of it
 * (RunShards / MapShards), which every parallel site of the suite
 * dispatches through: campaign shards, the guardband study's devices,
 * fig14's memsim runs, the single-row series experiments and fig07's
 * per-series analyses.
 *
 * Design constraints, in order:
 *  1. Determinism: the pool never owns randomness or ordering. Callers
 *     shard work into independent index-addressed tasks whose results
 *     land in preallocated slots, so output is bit-identical for any
 *     worker count (including the inline serial fallback).
 *  2. Coarse tasks: campaign shards run for seconds, so per-worker
 *     deques guarded by plain mutexes are plenty; no lock-free
 *     machinery is warranted.
 *  3. Exceptions propagate deterministically: when tasks throw, the
 *     exception with the smallest index wins — not whichever thread
 *     lost the race — and is rethrown from ParallelFor on the calling
 *     thread; remaining tasks are abandoned (tasks that never started
 *     do not get to compete, so the winner is the canonical-first
 *     among the tasks that actually threw).
 */
#ifndef VRDDRAM_COMMON_THREAD_POOL_H
#define VRDDRAM_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vrddram {

class ThreadPool {
 public:
  /// `workers` = 0 selects DefaultWorkerCount().
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return queues_.size(); }

  /**
   * Run fn(i) for every i in [0, n) across the workers and block until
   * all complete. Indices are split into contiguous chunks; each worker
   * drains its own deque LIFO and steals FIFO from the others when it
   * runs dry. Rethrows the thrown task exception with the smallest
   * index. A call from one of this pool's own worker threads runs
   * inline (serially) instead of deadlocking on the single-job lock.
   */
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  /// max(1, std::thread::hardware_concurrency()).
  static std::size_t DefaultWorkerCount();

 private:
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;  ///< exclusive
  };
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Chunk> chunks;
  };

  void WorkerLoop(std::size_t index);
  /// Pop from own deque (back) or steal from another (front).
  bool TryClaim(std::size_t index, Chunk* out);
  void RunChunk(const Chunk& chunk);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::jthread> workers_;

  /// Serializes ParallelFor callers: one job at a time.
  std::mutex job_mutex_;

  std::mutex state_mutex_;
  std::condition_variable work_cv_;  ///< workers wait for chunks
  std::condition_variable done_cv_;  ///< caller waits for completion
  bool stopping_ = false;
  const std::function<void(std::size_t)>* job_ = nullptr;
  /// Chunks not yet claimed by any worker (wait predicate).
  std::atomic<std::size_t> unclaimed_{0};
  /// Chunks not yet fully executed (completion predicate).
  std::size_t pending_ = 0;
  std::atomic<bool> abort_{false};
  std::exception_ptr error_;
  /// Task index that produced error_; the smallest index wins so the
  /// rethrown exception is deterministic under concurrent failures.
  std::size_t error_index_ = 0;
};

/**
 * The shard executor: run shard(i) for every i in [0, n) on
 * min(threads, n) workers, where `threads` = 0 selects
 * ThreadPool::DefaultWorkerCount(). One worker runs the shards inline
 * on the calling thread in index order; more go through a fresh
 * ThreadPool's ParallelFor. Every shard must derive all of its state
 * from its index and write only its own preallocated slot, so a caller
 * that merges the slots in index order gets the same bytes at any
 * worker count. Rethrows the exception of the smallest index that
 * threw. Returns the worker count used (0 when n = 0).
 */
std::size_t RunShards(std::size_t n, std::size_t threads,
                      const std::function<void(std::size_t)>& shard);

/// RunShards collecting shard(i)'s return value into slot i.
template <typename Fn>
auto MapShards(std::size_t n, std::size_t threads, Fn&& shard)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Slot = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_same_v<Slot, bool>,
                "vector<bool> packs slots into shared bytes");
  std::vector<Slot> slots(n);
  RunShards(n, threads, [&](std::size_t i) { slots[i] = shard(i); });
  return slots;
}

}  // namespace vrddram

#endif  // VRDDRAM_COMMON_THREAD_POOL_H
