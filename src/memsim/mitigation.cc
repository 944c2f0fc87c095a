#include "memsim/mitigation.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace vrddram::memsim {

MitigationCosts MitigationCosts::FromTiming(
    const dram::TimingParams& timing) {
  MitigationCosts costs;
  // Refreshing one victim row costs a full row cycle; a preventive
  // action refreshes both neighbors of the aggressor.
  costs.neighbor_refresh = 2 * timing.tRC;
  // RFM / back-off blackout, per JESD79-5C refresh-management timing.
  costs.rfm = 195 * units::kNanosecond;
  return costs;
}

std::unique_ptr<Mitigation> MakeMitigation(
    MitigationKind kind, std::uint64_t rdt,
    const dram::TimingParams& timing, std::uint64_t seed) {
  const MitigationCosts costs = MitigationCosts::FromTiming(timing);
  switch (kind) {
    case MitigationKind::kNone:
      return std::make_unique<NoMitigation>();
    case MitigationKind::kGraphene:
      return std::make_unique<Graphene>(rdt, costs);
    case MitigationKind::kPrac:
      return std::make_unique<Prac>(rdt, costs);
    case MitigationKind::kPara:
      return std::make_unique<Para>(rdt, costs, seed);
    case MitigationKind::kMint:
      return std::make_unique<Mint>(rdt, costs);
  }
  throw PanicError("unknown mitigation kind");
}

// -- Graphene ---------------------------------------------------------------

Graphene::Graphene(std::uint64_t rdt, MitigationCosts costs)
    : costs_(costs) {
  VRD_FATAL_IF(rdt < 4, "RDT too small to configure Graphene");
  // Refresh neighbors once a row accumulates a quarter of the
  // threshold; the Misra-Gries table is sized so no row can exceed the
  // threshold between resets (Graphene's W/T sizing, bounded for
  // simulation practicality).
  threshold_ = std::max<std::uint64_t>(1, rdt / 4);
  const std::uint64_t acts_per_window = 8192 * 8;  // ~tREFW at tRC pace
  table_size_ = static_cast<std::size_t>(
      std::clamp<std::uint64_t>(acts_per_window / threshold_, 8, 4096));
}

Penalty Graphene::OnActivate(std::uint32_t bank, std::uint32_t row) {
  VRD_ASSERT(bank < kNumBanks);
  std::vector<Entry>& table = tables_[bank];
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
  // Misra-Gries: when the table is full and the row is untracked, the
  // activation cancels against one count of every tracked row.
  for (Entry& entry : table) {
    if (entry.count > 0) {
      --entry.count;
    }
  }
  std::erase_if(table, [](const Entry& e) { return e.count == 0; });
  return Penalty{};
}

// -- PRAC --------------------------------------------------------------------

Prac::Prac(std::uint64_t rdt, MitigationCosts costs) : costs_(costs) {
  VRD_FATAL_IF(rdt < 4, "RDT too small to configure PRAC");
  // Back-off when a row's count reaches ~40% of the threshold, leaving
  // headroom for the ALERT handshake latency and in-flight activations
  // (the Chronus/PRAC analyses use similarly conservative margins).
  threshold_ = std::max<std::uint64_t>(2, rdt * 2 / 5);
}

Penalty Prac::OnActivate(std::uint32_t bank, std::uint32_t row) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(bank) << 32) | row;
  std::uint64_t& count = counters_[key];
  Penalty penalty;
  penalty.bank_busy = kPerActTax;  // counter-update tRC stretch
  if (++count >= threshold_) {
    count = 0;
    ++preventive_actions_;
    // ALERT_n back-off: the whole rank performs refresh management.
    penalty.rank_busy = costs_.rfm;
  }
  return penalty;
}

// -- PARA --------------------------------------------------------------------

Para::Para(std::uint64_t rdt, MitigationCosts costs, std::uint64_t seed)
    : costs_(costs), rng_(seed) {
  VRD_FATAL_IF(rdt < 2, "RDT too small to configure PARA");
  // p = 1 - eps^(1/RDT) ~ -ln(eps)/RDT for a per-row failure
  // probability eps = 1e-15 over RDT activations.
  constexpr double kLnEps = 34.5;  // -ln(1e-15)
  probability_ = std::min(1.0, kLnEps / static_cast<double>(rdt));
}

Penalty Para::OnActivate(std::uint32_t bank, std::uint32_t row) {
  (void)bank;
  (void)row;
  if (rng_.NextBernoulli(probability_)) {
    ++preventive_actions_;
    Penalty penalty;
    penalty.bank_busy = costs_.neighbor_refresh;
    penalty.extra_activations = 2;
    return penalty;
  }
  return Penalty{};
}

// -- MINT --------------------------------------------------------------------

Mint::Mint(std::uint64_t rdt, MitigationCosts costs) : costs_(costs) {
  VRD_FATAL_IF(rdt < 8, "RDT too small to configure MINT");
  // One RFM per rdt/16 activations keeps the sampled-aggressor bound
  // below the threshold; the interval is quantized to the nearest power
  // of two (the tracker's window register), which is why small
  // threshold changes (128 -> 115) often do not change MINT's
  // behaviour at all. Nearest in log2: raw rounds up to 2p exactly when
  // log2(raw) >= log2(p) + 1/2, i.e. raw^2 >= 2p^2 (squared in 128 bits).
  using Uint128 = unsigned __int128;
  const std::uint64_t raw = std::max<std::uint64_t>(2, rdt / 16);
  const std::uint64_t p = std::bit_floor(raw);
  rfm_interval_ =
      Uint128{raw} * raw >= 2 * Uint128{p} * p ? 2 * p : p;
}

Penalty Mint::OnActivate(std::uint32_t bank, std::uint32_t row) {
  (void)row;
  VRD_ASSERT(bank < kNumBanks);
  std::uint64_t& count = acts_since_rfm_[bank];
  Penalty penalty;
  if (++count >= rfm_interval_) {
    count = 0;
    ++preventive_actions_;
    // RFM: the bank (and its bank group's ACT budget) is blocked.
    penalty.bank_busy = costs_.rfm;
    penalty.extra_activations = 4;  // refresh-management row cycles
  }
  return penalty;
}

}  // namespace vrddram::memsim
