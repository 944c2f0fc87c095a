/**
 * @file
 * Read-disturbance mitigation engines evaluated in §6.3 (Fig. 14):
 * Graphene [83], PRAC [138], PARA [1], and MINT [218]. Each engine
 * observes every row activation and returns the extra bank-busy time
 * its preventive actions cost (neighbor refreshes, RFMs, back-offs).
 *
 * All engines are configured with a read disturbance threshold; the
 * guardband study lowers that threshold by the safety margin, which is
 * exactly how the paper derives the Fig. 14 x-axis.
 */
#ifndef VRDDRAM_MEMSIM_MITIGATION_H
#define VRDDRAM_MEMSIM_MITIGATION_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dram/timing.h"
#include "memsim/row_table.h"

namespace vrddram::memsim {

enum class MitigationKind : std::uint8_t {
  kNone,
  kGraphene,
  kPrac,
  kPara,
  kMint,
};

/// Banks per channel; every engine's per-bank state has this many slots.
constexpr std::uint32_t kNumBanks = 32;

/// Cost constants shared by the engines (derived from the timing set).
struct MitigationCosts {
  Tick neighbor_refresh = 0;  ///< one victim-row refresh (ACT+PRE)
  Tick rfm = 0;               ///< one RFM / back-off blackout

  static MitigationCosts FromTiming(const dram::TimingParams& timing);
};

/// Cost of the preventive actions triggered by one activation.
struct Penalty {
  Tick bank_busy = 0;  ///< extra busy time on the activated bank
  Tick rank_busy = 0;  ///< rank-wide blackout (RFM / ALERT back-off)
  /// Preventive row activations (neighbor refreshes) consuming the
  /// rank's tRRD/tFAW activation budget.
  std::uint32_t extra_activations = 0;
};

class Mitigation {
 public:
  virtual ~Mitigation() = default;

  /// Row activation in `bank` (< kNumBanks); returns the
  /// preventive-action cost.
  virtual Penalty OnActivate(std::uint32_t bank, std::uint32_t row) = 0;

  /// Total preventive actions taken (stats).
  std::uint64_t preventive_actions() const { return preventive_actions_; }

 protected:
  std::uint64_t preventive_actions_ = 0;
};

/**
 * Factory: build a mitigation configured for `rdt` (the threshold the
 * system designer programmed, i.e. measured RDT minus the guardband).
 */
std::unique_ptr<Mitigation> MakeMitigation(
    MitigationKind kind, std::uint64_t rdt,
    const dram::TimingParams& timing, std::uint64_t seed);

// -- concrete engines (exposed for unit testing) ---------------------------

/// No mitigation: the Fig. 14 baseline.
class NoMitigation final : public Mitigation {
 public:
  Penalty OnActivate(std::uint32_t, std::uint32_t) override {
    return Penalty{};
  }
};

/**
 * Graphene: per-bank Misra-Gries frequent-element tables; when a
 * tracked row's estimated count reaches the threshold, its neighbors
 * are preventively refreshed and the counter resets.
 *
 * Every operation is O(1) amortized. A table-full decrement of a whole
 * bank bumps the bank's base instead of walking its entries (the
 * Stream-Summary bookkeeping of Space-Saving): a row's count is its
 * stored value minus the base, and a ring of per-stored-value entry
 * counts says how many entries the decrement drops, the ones at counts
 * 0 and 1. The rows live in one (bank, row) RowTable, whose rebuilds
 * shed the dropped entries.
 */
class Graphene final : public Mitigation {
 public:
  Graphene(std::uint64_t rdt, MitigationCosts costs);
  Penalty OnActivate(std::uint32_t bank, std::uint32_t row) override;
  std::uint64_t threshold() const { return threshold_; }
  /// The threshold a Graphene configured for `rdt` acts at.
  static std::uint64_t ThresholdFor(std::uint64_t rdt);

 private:
  /// A row's count plus its bank's base at the time.
  struct Tracked {
    std::uint64_t stored : 63;
    /// Reset to count 0 since the bank's last decrement. A row the
    /// last decrement took from count 1 also has stored == base, but
    /// it left the table.
    std::uint64_t zeroed : 1;
  };

  bool Live(const Tracked& tracked, std::uint32_t bank) const {
    return tracked.stored > base_[bank] ||
           (tracked.zeroed != 0 && tracked.stored == base_[bank]);
  }
  /// Live entries of `bank` stored at `stored`.
  std::uint32_t& Bucket(std::uint32_t bank, std::uint64_t stored) {
    return ring_[(std::size_t{bank} << ring_log_) |
                 (stored & ((std::uint64_t{1} << ring_log_) - 1))];
  }
  /// Doubles every bank's ring, for counts up to twice as high.
  void GrowRing();

  std::uint64_t threshold_;
  std::size_t table_size_;
  MitigationCosts costs_;
  /// Decrements so far, per bank.
  std::array<std::uint64_t, kNumBanks> base_{};
  /// Live entries per bank, the Misra-Gries table size.
  std::array<std::size_t, kNumBanks> size_{};
  /// log2 of each bank's ring length. A ring covers the stored values
  /// base .. base + 2^ring_log_ - 1, so every live count must stay
  /// below its length.
  int ring_log_ = 3;
  std::vector<std::uint32_t> ring_;
  RowTable<Tracked> rows_;
};

/**
 * PRAC: per-row activation counters in DRAM; crossing the back-off
 * threshold raises ALERT_n and the controller performs an RFM during
 * which the bank is unavailable. The counter update also stretches
 * every row cycle slightly (the PRAC tRC tax).
 */
class Prac final : public Mitigation {
 public:
  Prac(std::uint64_t rdt, MitigationCosts costs);
  Penalty OnActivate(std::uint32_t bank, std::uint32_t row) override;
  std::uint64_t threshold() const { return threshold_; }
  /// The back-off threshold a PRAC configured for `rdt` acts at.
  static std::uint64_t ThresholdFor(std::uint64_t rdt);
  static constexpr Tick kPerActTax = 1 * units::kNanosecond;

 private:
  std::uint64_t threshold_;
  MitigationCosts costs_;
  /// Only ever looked up, never walked.
  RowTable<std::uint64_t> counters_;
};

/**
 * PARA: on every activation, refresh the neighbors with probability p
 * chosen so that RDT activations slip through unmitigated only with
 * negligible probability (p ~ -ln(eps)/RDT).
 */
class Para final : public Mitigation {
 public:
  Para(std::uint64_t rdt, MitigationCosts costs, std::uint64_t seed);
  Penalty OnActivate(std::uint32_t bank, std::uint32_t row) override;
  double probability() const { return probability_; }

 private:
  double probability_;
  MitigationCosts costs_;
  Rng rng_;
};

/**
 * MINT: a minimalist in-DRAM tracker that mitigates one sampled
 * aggressor per RFM, modeled as a periodic RFM blackout every K
 * activations per bank, with K the power of two nearest RDT/16.
 */
class Mint final : public Mitigation {
 public:
  Mint(std::uint64_t rdt, MitigationCosts costs);
  Penalty OnActivate(std::uint32_t bank, std::uint32_t row) override;
  std::uint64_t rfm_interval() const { return rfm_interval_; }
  /// The RFM interval of a MINT configured for `rdt`.
  static std::uint64_t IntervalFor(std::uint64_t rdt);

 private:
  std::uint64_t rfm_interval_;
  MitigationCosts costs_;
  std::array<std::uint64_t, kNumBanks> acts_since_rfm_{};
};

}  // namespace vrddram::memsim

#endif  // VRDDRAM_MEMSIM_MITIGATION_H
