#include "core/sorted_flips.h"

#include <algorithm>

#include "common/error.h"

namespace vrddram::core {

std::int64_t SortedFlips::AtRank(std::size_t i) const {
  VRD_ASSERT(i < size);
  std::size_t j = 0;
  while (i >= run_counts[j]) {
    i -= run_counts[j];
    ++j;
  }
  return run_values[j];
}

SortedFlips BuildSortedFlips(std::span<const std::int64_t> series) {
  std::vector<std::int64_t> sorted;
  sorted.reserve(series.size());
  for (const std::int64_t v : series) {
    if (v >= 0) {
      sorted.push_back(v);
    }
  }
  std::sort(sorted.begin(), sorted.end());

  SortedFlips out;
  out.size = sorted.size();
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[i]) {
      ++j;
    }
    out.run_values.push_back(sorted[i]);
    out.run_counts.push_back(j - i);
    i = j;
  }
  return out;
}

}  // namespace vrddram::core
