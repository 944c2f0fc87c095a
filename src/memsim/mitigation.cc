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

std::uint64_t Graphene::ThresholdFor(std::uint64_t rdt) {
  VRD_FATAL_IF(rdt < 4, "RDT too small to configure Graphene");
  // Refresh neighbors once a row accumulates a quarter of the
  // threshold.
  return std::max<std::uint64_t>(1, rdt / 4);
}

Graphene::Graphene(std::uint64_t rdt, MitigationCosts costs)
    : threshold_(ThresholdFor(rdt)),
      costs_(costs),
      ring_(std::size_t{kNumBanks} << ring_log_, 0) {
  // The Misra-Gries table is sized so no row can exceed the threshold
  // between resets (Graphene's W/T sizing, bounded for simulation
  // practicality).
  const std::uint64_t acts_per_window = 8192 * 8;  // ~tREFW at tRC pace
  table_size_ = static_cast<std::size_t>(
      std::clamp<std::uint64_t>(acts_per_window / threshold_, 8, 4096));
}

Penalty Graphene::OnActivate(std::uint32_t bank, std::uint32_t row) {
  VRD_ASSERT(bank < kNumBanks);
  const std::uint64_t key = RowKey(bank, row);
  const std::uint64_t base = base_[bank];
  RowTable<Tracked>::Slot& slot = rows_.Probe(key);
  if (slot.key == key && Live(slot.value, bank)) {
    Tracked& tracked = slot.value;
    --Bucket(bank, tracked.stored);
    Penalty penalty;
    const std::uint64_t count = tracked.stored - base + 1;
    if (count >= threshold_) {
      tracked = Tracked{base, 1};
      ++preventive_actions_;
      penalty.bank_busy = costs_.neighbor_refresh;
      penalty.extra_activations = 2;
    } else {
      if ((count >> ring_log_) != 0) {
        GrowRing();
      }
      tracked = Tracked{base + count, 0};
    }
    ++Bucket(bank, tracked.stored);
    return penalty;
  }
  if (size_[bank] < table_size_) {
    // Admitted at count 1, with no threshold check (so at threshold 1
    // the row acts on its second activation).
    ++size_[bank];
    ++Bucket(bank, base + 1);
    const Tracked admitted{base + 1, 0};
    if (slot.key == key) {
      slot.value = admitted;  // the row left the table earlier
    } else {
      rows_.Insert(key, admitted,
                   [this](const RowTable<Tracked>::Slot& kept) {
                     return Live(kept.value,
                                 static_cast<std::uint32_t>(kept.key >> 32));
                   });
    }
    return Penalty{};
  }
  // Misra-Gries: when the table is full and the row is untracked, the
  // activation cancels against one count of every tracked row, and the
  // rows at counts 0 and 1 leave the table.
  std::uint32_t& at_zero = Bucket(bank, base);
  std::uint32_t& at_one = Bucket(bank, base + 1);
  size_[bank] -= at_zero + at_one;
  at_zero = 0;
  at_one = 0;
  base_[bank] = base + 1;
  return Penalty{};
}

void Graphene::GrowRing() {
  const std::uint64_t length = std::uint64_t{1} << ring_log_;
  std::vector<std::uint32_t> grown(ring_.size() * 2, 0);
  for (std::uint32_t bank = 0; bank < kNumBanks; ++bank) {
    for (std::uint64_t stored = base_[bank];
         stored < base_[bank] + length; ++stored) {
      grown[(std::size_t{bank} << (ring_log_ + 1)) |
            (stored & (2 * length - 1))] = Bucket(bank, stored);
    }
  }
  ring_ = std::move(grown);
  ++ring_log_;
}

// -- PRAC --------------------------------------------------------------------

std::uint64_t Prac::ThresholdFor(std::uint64_t rdt) {
  VRD_FATAL_IF(rdt < 4, "RDT too small to configure PRAC");
  // Back-off when a row's count reaches ~40% of the threshold, leaving
  // headroom for the ALERT handshake latency and in-flight activations
  // (the Chronus/PRAC analyses use similarly conservative margins).
  return std::max<std::uint64_t>(2, rdt * 2 / 5);
}

Prac::Prac(std::uint64_t rdt, MitigationCosts costs)
    : threshold_(ThresholdFor(rdt)), costs_(costs) {}

Penalty Prac::OnActivate(std::uint32_t bank, std::uint32_t row) {
  VRD_ASSERT(bank < kNumBanks);
  std::uint64_t& count = counters_[RowKey(bank, row)];
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

std::uint64_t Mint::IntervalFor(std::uint64_t rdt) {
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
  return Uint128{raw} * raw >= 2 * Uint128{p} * p ? 2 * p : p;
}

Mint::Mint(std::uint64_t rdt, MitigationCosts costs)
    : rfm_interval_(IntervalFor(rdt)), costs_(costs) {}

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
