/**
 * @file
 * The shard executor (RunShards / MapShards), which every parallel site
 * of the suite dispatches through: campaign shards, the guardband
 * study's devices, fig14's mixes and the single-row series
 * experiments.
 *
 * Design constraints, in order:
 *  1. Determinism: the executor never owns randomness or ordering.
 *     Callers shard work into independent index-addressed tasks whose
 *     results land in preallocated slots, so output is bit-identical
 *     for any worker count (including the inline serial loop).
 *  2. Coarse tasks: campaign shards run for seconds, so one shared
 *     atomic index counter is all the scheduling needed; each call
 *     starts its own threads and joins them before returning.
 *  3. Exceptions propagate deterministically: the rethrown exception
 *     is always the one of the smallest throwing index, the same one
 *     the serial loop throws, at every worker count.
 */
#ifndef VRDDRAM_COMMON_SHARDS_H
#define VRDDRAM_COMMON_SHARDS_H

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace vrddram {

/**
 * Run shard(i) for every i in [0, n) on min(threads, n) workers, where
 * `threads` = 0 selects max(1, std::thread::hardware_concurrency()).
 * One worker runs the shards inline on the calling thread in index
 * order. More start workers - 1 threads that work alongside the
 * calling thread, each claiming the next index from one shared counter
 * until the indices run out or a shard throws. Every shard must derive
 * all of its state from its index and write only its own preallocated
 * slot, so a caller that merges the slots in index order gets the same
 * bytes at any worker count.
 *
 * Indices are claimed in increasing order, so every index below the
 * first one that throws has already been claimed and runs to
 * completion: the rethrown exception is the smallest throwing index's,
 * as in the serial loop. Returns the worker count used (0 when n = 0).
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

#endif  // VRDDRAM_COMMON_SHARDS_H
