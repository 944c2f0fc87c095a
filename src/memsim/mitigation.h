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
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dram/timing.h"

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
 */
class Graphene final : public Mitigation {
 public:
  Graphene(std::uint64_t rdt, MitigationCosts costs);
  Penalty OnActivate(std::uint32_t bank, std::uint32_t row) override;
  std::uint64_t threshold() const { return threshold_; }

 private:
  struct Entry {
    std::uint32_t row = 0;
    std::uint64_t count = 0;
  };

  std::uint64_t threshold_;
  std::size_t table_size_;
  MitigationCosts costs_;
  std::array<std::vector<Entry>, kNumBanks> tables_;
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
  static constexpr Tick kPerActTax = 1 * units::kNanosecond;

 private:
  std::uint64_t threshold_;
  MitigationCosts costs_;
  /// Keyed (bank << 32) | row and only ever looked up, never walked.
  std::unordered_map<std::uint64_t, std::uint64_t> counters_;
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

 private:
  std::uint64_t rfm_interval_;
  MitigationCosts costs_;
  std::array<std::uint64_t, kNumBanks> acts_since_rfm_{};
};

}  // namespace vrddram::memsim

#endif  // VRDDRAM_MEMSIM_MITIGATION_H
