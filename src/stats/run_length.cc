#include "stats/run_length.h"

#include <vector>

#include "common/error.h"

namespace vrddram::stats {

std::uint64_t RunLengthHistogram::TotalRuns() const {
  std::uint64_t total = 0;
  for (const auto& [len, count] : counts) {
    total += count;
  }
  return total;
}

std::size_t RunLengthHistogram::LongestRun() const {
  if (counts.empty()) {
    return 0;
  }
  return counts.rbegin()->first;
}

double RunLengthHistogram::ImmediateChangeFraction() const {
  const std::uint64_t total = TotalRuns();
  if (total == 0) {
    return 0.0;
  }
  const auto it = counts.find(1);
  const std::uint64_t ones = (it == counts.end()) ? 0 : it->second;
  return static_cast<double>(ones) / static_cast<double>(total);
}

RunLengthHistogram ComputeRunLengths(std::span<const std::int64_t> xs) {
  RunLengthHistogram hist;
  if (xs.empty()) {
    return hist;
  }
  // Runs are counted in a flat vector indexed by length, which grows to
  // the longest run only, and the map is built from it once, in order.
  std::vector<std::uint64_t> by_length;
  const auto count = [&by_length](std::size_t run) {
    if (run >= by_length.size()) {
      by_length.resize(run + 1, 0);
    }
    ++by_length[run];
  };
  std::size_t run = 1;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] == xs[i - 1]) {
      ++run;
    } else {
      count(run);
      run = 1;
    }
  }
  count(run);
  for (std::size_t len = 1; len < by_length.size(); ++len) {
    if (by_length[len] != 0) {
      hist.counts.emplace_hint(hist.counts.end(), len, by_length[len]);
    }
  }
  return hist;
}

void Merge(RunLengthHistogram& a, const RunLengthHistogram& b) {
  for (const auto& [len, count] : b.counts) {
    a.counts[len] += count;
  }
}

}  // namespace vrddram::stats
