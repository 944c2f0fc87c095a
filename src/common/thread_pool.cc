#include "common/thread_pool.h"

#include <algorithm>

namespace vrddram {

namespace {

/// Set while a thread runs a pool's WorkerLoop; lets a nested
/// ParallelFor on the same pool fall back to inline execution.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

std::size_t ThreadPool::DefaultWorkerCount() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = DefaultWorkerCount();
  }
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // std::jthread joins on destruction.
}

bool ThreadPool::OnWorkerThread() const { return t_current_pool == this; }

void ThreadPool::ParallelFor(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (OnWorkerThread()) {
    // Nested use from a task: the job lock is (or may be) held by the
    // thread that submitted the outer job, and blocking this worker on
    // it could deadlock the pool. Inline execution preserves results.
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  std::lock_guard<std::mutex> job_lock(job_mutex_);
  const std::size_t workers = worker_count();
  // ~8 chunks per worker balances stealing granularity against
  // per-chunk locking; campaign-style jobs (n < workers) get one
  // index per chunk.
  const std::size_t grain =
      std::max<std::size_t>(1, n / (workers * 8));
  std::vector<Chunk> chunks;
  chunks.reserve(n / grain + 1);
  for (std::size_t begin = 0; begin < n; begin += grain) {
    chunks.push_back(Chunk{begin, std::min(n, begin + grain)});
  }

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    job_ = &fn;
    pending_ = chunks.size();
    abort_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    error_index_ = ~std::size_t{0};
  }
  // Distribute round-robin *before* publishing the unclaimed count so
  // a woken worker always finds the chunks it was promised.
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    WorkerQueue& queue = *queues_[i % workers];
    std::lock_guard<std::mutex> lock(queue.mutex);
    queue.chunks.push_back(chunks[i]);
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    unclaimed_.store(chunks.size(), std::memory_order_release);
  }
  work_cv_.notify_all();

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    job_ = nullptr;
    error = error_;
    error_ = nullptr;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

bool ThreadPool::TryClaim(std::size_t index, Chunk* out) {
  const std::size_t workers = queues_.size();
  for (std::size_t k = 0; k < workers; ++k) {
    const std::size_t victim = (index + k) % workers;
    WorkerQueue& queue = *queues_[victim];
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.chunks.empty()) {
      continue;
    }
    if (victim == index) {
      *out = queue.chunks.back();
      queue.chunks.pop_back();
    } else {
      *out = queue.chunks.front();
      queue.chunks.pop_front();
    }
    unclaimed_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }
  return false;
}

void ThreadPool::RunChunk(const Chunk& chunk) {
  if (!abort_.load(std::memory_order_relaxed)) {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      if (abort_.load(std::memory_order_relaxed)) {
        break;
      }
      try {
        (*job_)(i);
      } catch (...) {
        // Keep the exception with the smallest task index, so the
        // caller sees a deterministic winner when several tasks throw
        // concurrently rather than whichever thread raced in first.
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (error_ == nullptr || i < error_index_) {
          error_ = std::current_exception();
          error_index_ = i;
        }
        abort_.store(true, std::memory_order_relaxed);
        break;
      }
    }
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (--pending_ == 0) {
    done_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop(std::size_t index) {
  t_current_pool = this;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      work_cv_.wait(lock, [&] {
        return stopping_ ||
               unclaimed_.load(std::memory_order_acquire) > 0;
      });
      if (stopping_) {
        return;
      }
    }
    Chunk chunk;
    while (TryClaim(index, &chunk)) {
      RunChunk(chunk);
    }
  }
}

std::size_t RunShards(std::size_t n, std::size_t threads,
                      const std::function<void(std::size_t)>& shard) {
  const std::size_t workers = std::min(
      threads == 0 ? ThreadPool::DefaultWorkerCount() : threads, n);
  if (workers > 1) {
    ThreadPool pool(workers);
    pool.ParallelFor(n, shard);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      shard(i);
    }
  }
  return workers;
}

}  // namespace vrddram
