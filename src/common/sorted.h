/**
 * @file
 * Hash-order laundering for unordered containers.
 *
 * Iterating a `std::unordered_map`/`set` bakes the hash function and
 * the container's growth history into whatever the loop produces —
 * which is exactly the kind of incidental state the determinism
 * contract (DESIGN.md §6) forbids in results. Whenever aggregation or
 * output needs to walk an unordered container, extract it through
 * SortedByKey() first: the result is a key-sorted vector, a pure
 * function of the container's *contents*. The `vrdlint`
 * `unordered-iteration` rule recognizes this helper and accepts
 * range-for over it where it would flag the raw container.
 */
#ifndef VRDDRAM_COMMON_SORTED_H
#define VRDDRAM_COMMON_SORTED_H

#include <algorithm>
#include <utility>
#include <vector>

namespace vrddram {

/// Key-sorted (key, value) snapshot of an associative container.
template <typename Map>
std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
SortedByKey(const Map& map) {
  std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
      out;
  out.reserve(map.size());
  for (auto it = map.begin(); it != map.end(); ++it) {
    out.emplace_back(it->first, it->second);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace vrddram

#endif  // VRDDRAM_COMMON_SORTED_H
