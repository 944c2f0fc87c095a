/**
 * @file
 * Test-only reference oracles for the counting trackers, straight from
 * their definitions: Graphene as a per-bank vector of (row, count)
 * entries searched linearly, whose table-full decrement walks every
 * entry and erases the ones it takes to 0, and PRAC as one
 * std::unordered_map counter per (bank, row). memsim::Graphene and
 * memsim::Prac keep the same state in flat O(1) tables; tests check
 * them against these activation by activation.
 */
#ifndef VRDDRAM_TESTS_MEMSIM_TRACKER_ORACLE_H
#define VRDDRAM_TESTS_MEMSIM_TRACKER_ORACLE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "memsim/mitigation.h"

namespace vrddram::oracle {

using memsim::kNumBanks;
using memsim::MitigationCosts;
using memsim::Penalty;

/// Graphene's Misra-Gries tables, one linear vector per bank.
class Graphene final : public memsim::Mitigation {
 public:
  Graphene(std::uint64_t rdt, MitigationCosts costs)
      : threshold_(std::max<std::uint64_t>(1, rdt / 4)),
        table_size_(static_cast<std::size_t>(std::clamp<std::uint64_t>(
            std::uint64_t{8192 * 8} / threshold_, 8, 4096))),
        costs_(costs) {}

  Penalty OnActivate(std::uint32_t bank, std::uint32_t row) override {
    std::vector<Entry>& table = tables_.at(bank);
    for (Entry& entry : table) {
      if (entry.row == row) {
        if (++entry.count >= threshold_) {
          entry.count = 0;
          ++preventive_actions_;
          Penalty penalty;
          penalty.bank_busy = costs_.neighbor_refresh;
          penalty.extra_activations = 2;
          return penalty;
        }
        return Penalty{};
      }
    }
    if (table.size() < table_size_) {
      table.push_back(Entry{row, 1});
      return Penalty{};
    }
    ++decrements_;
    for (Entry& entry : table) {
      if (entry.count > 0) {
        --entry.count;
      } else {
        ++dropped_at_zero_;
      }
    }
    std::erase_if(table, [](const Entry& e) { return e.count == 0; });
    return Penalty{};
  }

  std::uint64_t threshold() const { return threshold_; }
  std::size_t table_size() const { return table_size_; }
  /// Table-full decrements so far.
  std::uint64_t decrements() const { return decrements_; }
  /// Entries those decrements erased at count 0, i.e. rows reset by an
  /// action that stayed tracked until the next decrement.
  std::uint64_t dropped_at_zero() const { return dropped_at_zero_; }

 private:
  struct Entry {
    std::uint32_t row = 0;
    std::uint64_t count = 0;
  };

  std::uint64_t threshold_;
  std::size_t table_size_;
  MitigationCosts costs_;
  std::array<std::vector<Entry>, kNumBanks> tables_;
  std::uint64_t decrements_ = 0;
  std::uint64_t dropped_at_zero_ = 0;
};

/// PRAC's per-row counters in a std::unordered_map.
class Prac final : public memsim::Mitigation {
 public:
  Prac(std::uint64_t rdt, MitigationCosts costs)
      : threshold_(std::max<std::uint64_t>(2, rdt * 2 / 5)),
        costs_(costs) {}

  Penalty OnActivate(std::uint32_t bank, std::uint32_t row) override {
    std::uint64_t& count =
        counters_[(static_cast<std::uint64_t>(bank) << 32) | row];
    Penalty penalty;
    penalty.bank_busy = memsim::Prac::kPerActTax;
    if (++count >= threshold_) {
      count = 0;
      ++preventive_actions_;
      penalty.rank_busy = costs_.rfm;
    }
    return penalty;
  }

 private:
  std::uint64_t threshold_;
  MitigationCosts costs_;
  std::unordered_map<std::uint64_t, std::uint64_t> counters_;
};

}  // namespace vrddram::oracle

#endif  // VRDDRAM_TESTS_MEMSIM_TRACKER_ORACLE_H
