#include "common/shards.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace vrddram {

std::size_t RunShards(std::size_t n, std::size_t threads,
                      const std::function<void(std::size_t)>& shard) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t workers = std::min(threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      shard(i);
    }
    return workers;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = n;
  const auto work = [&] {
    while (!failed) {
      const std::size_t i = next++;
      if (i >= n) {
        return;
      }
      try {
        shard(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
        failed = true;
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      helpers.emplace_back(work);
    }
    work();
  }  // std::jthread joins on destruction.
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
  return workers;
}

}  // namespace vrddram
