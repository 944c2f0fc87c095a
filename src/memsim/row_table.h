/**
 * @file
 * Flat open-addressed (bank, row) → value table shared by the trackers
 * that count per row (PRAC, Graphene) and by the reuse rules'
 * per-row activation counter. Linear probing over a power-of-two slot
 * array: a lookup costs one multiply-shift hash and, at the bounded
 * load, about one probe, where `std::unordered_map` chases a node
 * pointer per lookup.
 */
#ifndef VRDDRAM_MEMSIM_ROW_TABLE_H
#define VRDDRAM_MEMSIM_ROW_TABLE_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vrddram::memsim {

/// One key per (bank, row): the bank in the high word.
inline std::uint64_t RowKey(std::uint32_t bank, std::uint32_t row) {
  return (std::uint64_t{bank} << 32) | row;
}

/**
 * Slots are never erased one by one. A slot the owner no longer needs
 * stays until the table reaches 3/4 load; the next insert then
 * rebuilds it with only the slots the owner's `keep` accepts, at half
 * load or less. Each rebuild is paid for by the inserts since the last
 * one, so every operation is amortized O(1).
 */
template <typename Value>
class RowTable {
 public:
  /// Marks a free slot; no RowKey of a bank below 2^32 - 1 equals it.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t key = kEmpty;
    Value value{};
  };

  RowTable() : slots_(kMinSlots) {}

  /// The slot holding `key`, or else the free slot where it would go.
  Slot& Probe(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>((key * kGolden) >> shift_);
    while (slots_[i].key != key && slots_[i].key != kEmpty) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  /**
   * Stores `key` (absent from the table) with `value`. A table at 3/4
   * load is first rebuilt with the slots `keep(slot)` accepts, so any
   * Slot reference taken before this call is invalid after it.
   */
  template <typename Keep>
  void Insert(std::uint64_t key, const Value& value, Keep keep) {
    if (4 * (used_ + 1) > 3 * slots_.size()) {
      Rebuild(keep);
    }
    Probe(key) = Slot{key, value};
    ++used_;
  }

  /// The value of `key`, inserted as Value{} on first use.
  Value& operator[](std::uint64_t key) {
    Slot& slot = Probe(key);
    if (slot.key == key) {
      return slot.value;
    }
    Insert(key, Value{}, [](const Slot&) { return true; });
    return Probe(key).value;
  }

 private:
  static constexpr std::size_t kMinSlots = 64;
  /// 2^64 / golden ratio: multiply-shift hashing spreads consecutive
  /// rows and the bank word over the top bits.
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  template <typename Keep>
  void Rebuild(Keep keep) {
    std::vector<Slot> old;
    old.swap(slots_);
    const auto kept = static_cast<std::size_t>(
        std::count_if(old.begin(), old.end(), [&](const Slot& slot) {
          return slot.key != kEmpty && keep(slot);
        }));
    slots_.assign(std::max(kMinSlots, std::bit_ceil(2 * (kept + 1))),
                  Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.key != kEmpty && keep(slot)) {
        Probe(slot.key) = slot;
      }
    }
    used_ = kept;
  }

  std::vector<Slot> slots_;
  /// 64 - log2(slots_.size()): the hash keeps the product's top bits.
  int shift_ = 64 - std::countr_zero(kMinSlots);
  /// Occupied slots, including the ones the owner no longer needs.
  std::size_t used_ = 0;
};

}  // namespace vrddram::memsim

#endif  // VRDDRAM_MEMSIM_ROW_TABLE_H
