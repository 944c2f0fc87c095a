/**
 * @file
 * Trap-based read-disturbance fault engine: the component that makes
 * the simulated chips exhibit *variable read disturbance*.
 *
 * Physics sketch (DESIGN.md §4, paper §4.2): each row owns a sparse
 * set of disturbance-prone weak cells. An aggressor activation injects
 * a dose into neighbouring cells, scaled by side-dependent coupling,
 * aggressor/victim data, RowPress amplification (tAggOn), and
 * temperature. A cell flips once its accumulated dose, amplified by
 * the weights of its *occupied charge traps*, crosses the cell's
 * intrinsic threshold. Traps are two-state continuous-time Markov
 * chains (random telegraph noise): fast low-weight traps create the
 * multi-state, near-normal RDT histograms of Fig. 4; rare low-occupancy
 * high-weight traps create the deep RDT minima that surface only after
 * tens of thousands of measurements (Fig. 1).
 *
 * Everything is deterministic given (device seed, bank, row): a chip
 * is a reproducible individual.
 */
#ifndef VRDDRAM_VRD_TRAP_ENGINE_H
#define VRDDRAM_VRD_TRAP_ENGINE_H

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dram/disturbance_model.h"
#include "dram/organization.h"
#include "vrd/fault_profile.h"

namespace vrddram::vrd {

/**
 * Poisson sampler for a fixed rate (Knuth's product-of-uniforms
 * method): construction pays the std::exp(-lambda) once, each draw is
 * then pure RNG work.
 *
 * Rates above 50 are rejected at construction: exp(-lambda) underflows
 * and the loop degenerates (see weak_cells_mean / fast_trap_mean).
 */
class PoissonSampler {
 public:
  explicit PoissonSampler(double lambda);

  std::size_t operator()(Rng& rng) const;

 private:
  double limit_ = 1.0;  ///< exp(-lambda), cached
};

class TrapFaultEngine final : public dram::ReadDisturbanceModel {
 public:
  TrapFaultEngine(FaultProfile profile, std::uint64_t device_seed,
                  dram::Organization org);

  // -- ReadDisturbanceModel -------------------------------------------------
  void OnActivations(dram::BankId bank, dram::PhysicalRow aggressor,
                     std::uint64_t count, Tick t_on, Tick now,
                     Celsius temperature,
                     std::span<const std::uint8_t> aggressor_data) override;
  void OnRestore(dram::BankId bank, dram::PhysicalRow row,
                 Tick now) override;
  void Evaluate(const dram::VictimContext& ctx,
                std::vector<dram::BitFlip>& out) override;

  // -- introspection (tests, analyses) --------------------------------------
  /// One charge trap attached to a weak cell (32 bytes). The kernel
  /// reads `weight` and `occupied` per sample; `occupancy` and
  /// `rate_hz` only feed context builds and memo misses. The sampling
  /// instant is the row's (RowState::last_sample).
  struct Trap {
    double occupancy = 0.0;   ///< stationary occupied probability
    double weight = 0.0;      ///< coupling boost while occupied
    bool occupied = false;
    double rate_hz = 0.0;     ///< total transition rate at 50 degC
  };
  static_assert(sizeof(Trap) == 32, "one trap per half cache line");

  /// One disturbance-prone cell of a row.
  struct WeakCell {
    std::uint32_t bit_index = 0;
    double threshold = 0.0;       ///< intrinsic dose budget
    double alpha_above = 0.5;     ///< share of coupling from row+1
    double temp_beta = 0.0;
    double noise_sigma = 0.0;  ///< per-cell analog noise magnitude
    double aggr_jitter[2] = {1.0, 1.0};    ///< by aggressor bit value
    double victim_jitter[2] = {1.0, 1.0};  ///< by victim bit value
    double dose[2] = {0.0, 0.0};           ///< accumulated, by aggr bit
    /// The cell's traps live in RowState::traps (one contiguous array
    /// per row, grouped by cell): [trap_begin, trap_begin+trap_count).
    std::uint32_t trap_begin = 0;
    std::uint32_t trap_count = 0;
  };

  struct RowState {
    std::vector<WeakCell> cells;
    /// All traps of the row, contiguous, grouped by cell, so the
    /// measurement kernel walks linear memory.
    std::vector<Trap> traps;
    Rng dynamics_rng{0};
    Tick last_restore = 0;
    /// When the row's traps were last sampled. Every path (Evaluate
    /// and the kernel) advances all of them together, so the row keeps
    /// one tick for all its traps.
    Tick last_sample = 0;

    std::span<Trap> CellTraps(const WeakCell& cell) {
      return {traps.data() + cell.trap_begin, cell.trap_count};
    }
    std::span<const Trap> CellTraps(const WeakCell& cell) const {
      return {traps.data() + cell.trap_begin, cell.trap_count};
    }
  };

  /**
   * Series-scoped cache and scratch for the hot measurement kernel
   * (DESIGN.md §9).
   *
   * Everything about one (victim row, pattern, t_on, temperature,
   * encoding) series that is invariant across its measurements:
   *  - the pinned RowState pointer (stable: states_ never erases),
   *  - per-cell fixed per-hammer multipliers — pattern jitters,
   *    same-bit/discharged selection, and the temperature exponential,
   *  - the Q10 trap-rate factor of its temperature, and
   *  - an exact memo of each trap's next-sample occupancy probability,
   *    from empty and from occupied, keyed on the tick delta between
   *    measurements: an open-addressed index over up to kMemoCapacity
   *    deltas, which covers the few dozen distinct sweep durations of
   *    a paper-scale series, so only a series' first visit to a
   *    duration pays the exp per trap.
   *
   * It also owns the kernel's per-cell and per-pair scratch, reserved
   * at build, so a measurement allocates nothing.
   *
   * Construction draws nothing from the dynamics RNG, and the memo
   * caches only values the same expressions would return for identical
   * arguments, so a rebuilt or fresh context continues any series bit
   * for bit.
   */
  class MeasureContext {
   public:
    MeasureContext() = default;

    /// Number of weak cells of the pinned row (introspection).
    std::size_t cell_count() const { return cells_.size(); }

    /// Distinct deltas the occupancy memo holds; a miss with the memo
    /// full empties it first.
    static constexpr std::size_t kMemoCapacity = 64;

   private:
    friend class TrapFaultEngine;

    struct CellPre {
      std::uint32_t bit_index = 0;
      std::uint32_t trap_begin = 0;
      std::uint32_t trap_count = 0;
      /// press * jitters * same-bit/discharged factors * temp exp: the
      /// full per-hammer dose except the trap-boost term.
      double per_hammer_fixed = 0.0;
      double threshold = 0.0;
      double noise_sigma = 0.0;
    };

    /// Index slots: twice the capacity keeps linear probes short.
    static constexpr std::size_t kMemoSlots = 2 * kMemoCapacity;

    /// Each trap's probability of being occupied `dt` after a sample,
    /// given its state then, memoized on dt.
    const std::array<double, 2>* OccupancyFor(Tick dt);
    /// Forget every memo entry, keeping the storage.
    void ClearMemo();

    RowState* state_ = nullptr;
    std::vector<CellPre> cells_;
    double q10_scale_ = 1.0;  ///< trap-rate factor at the temperature
    /// Open-addressed index on dt: 0 for an empty slot, else the
    /// entry number plus one.
    std::array<std::uint8_t, kMemoSlots> memo_slot_{};
    std::array<Tick, kMemoCapacity> memo_dt_{};  ///< per entry
    std::size_t memo_size_ = 0;                  ///< entries in use
    /// Per entry, per row trap: [0] from empty, [1] from occupied.
    /// Entry k starts at k * (the row's trap count); the vector only
    /// grows, so a rebuilt context reuses it.
    std::vector<std::array<double, 2>> memo_p_;
    // Kernel scratch, refilled by every measurement.
    std::vector<double> boost_;             ///< per cell
    std::vector<Rng::PolarPair> pairs_;     ///< per fresh polar pair
    std::vector<double> polar_factors_;     ///< per fresh polar pair
  };

  /// Weak-cell state of a row (creates it deterministically if new).
  const RowState& RowStateOf(dram::BankId bank, dram::PhysicalRow row);

  /**
   * Analytic fast path for profiling campaigns: the smallest
   * double-sided hammer count that flips any weak cell of `victim`
   * under the standard test setup (both aggressors filled with
   * `aggressor_byte`, victim with `victim_byte`, each activation
   * holding the row open for `t_on`), with trap states sampled at
   * `now`. Returns a negative value if no cell can flip at any count.
   *
   * Behaviourally this is the continuum limit of sweeping hammer
   * counts through the command path with trap states frozen for the
   * duration of one measurement (tests check the correspondence).
   *
   * One-shot convenience: rebuilds the engine's own MeasureContext in
   * place and runs the context kernel once. Series of measurements
   * hold a context instead.
   */
  double MinFlipHammerCount(dram::BankId bank, dram::PhysicalRow victim,
                            std::uint8_t victim_byte,
                            std::uint8_t aggressor_byte, Tick t_on,
                            Celsius temperature,
                            const dram::CellEncodingLayout& encoding,
                            Tick now);

  /// A weak cell's flipping hammer count under the standard setup.
  struct CellFlipPoint {
    std::uint32_t bit_index = 0;
    double hammer_count = 0.0;  ///< negative: cannot flip
  };

  // -- series-scoped fast path ----------------------------------------------
  /**
   * Build a MeasureContext for a series of measurements of `victim`
   * under a fixed (pattern, t_on, temperature, encoding) setup: pins
   * the row state (no hash lookup per call) and precomputes every
   * per-cell multiplier that is invariant across the series. Draws
   * nothing from the row's dynamics_rng, so interleaving context
   * construction with measurements does not perturb any sequence.
   */
  MeasureContext MakeMeasureContext(
      dram::BankId bank, dram::PhysicalRow victim,
      std::uint8_t victim_byte, std::uint8_t aggressor_byte, Tick t_on,
      Celsius temperature, const dram::CellEncodingLayout& encoding,
      Tick now);

  /// Reuse overload: rebuild `ctx` in place for a new series. Clears
  /// and refills the context's storage without releasing capacity, so
  /// a context hoisted out of a scan loop makes the steady state
  /// allocation-free.
  void MakeMeasureContext(dram::BankId bank, dram::PhysicalRow victim,
                          std::uint8_t victim_byte,
                          std::uint8_t aggressor_byte, Tick t_on,
                          Celsius temperature,
                          const dram::CellEncodingLayout& encoding,
                          Tick now, MeasureContext& ctx);

  /// Context-based MinFlipHammerCount: the measurement kernel itself,
  /// without the per-call state lookup, invariant recomputation, or
  /// allocation.
  double MinFlipHammerCount(MeasureContext& ctx, Tick now);

  /**
   * Per-cell variant of MinFlipHammerCount: the flipping hammer count
   * of every weak cell of the pinned row (trap states sampled at
   * `now`), in cell order, written into caller-owned scratch (cleared
   * first). Used by the guardband bitflip study (Fig. 16), which needs
   * to know *which* cells flip at a given hammer count.
   */
  void PerCellFlipHammerCounts(MeasureContext& ctx, Tick now,
                               std::vector<CellFlipPoint>& out);

  const FaultProfile& profile() const { return profile_; }

 private:
  RowState& MutableRowState(dram::BankId bank, dram::PhysicalRow row,
                            Tick now);

  /// The measurement kernel: advance every trap of the pinned row to
  /// `now` and emit (bit_index, flip hammer count) per cell, in cell
  /// order. Draws everything first, then transforms.
  template <typename Sink>
  void ForEachFlipPoint(MeasureContext& ctx, Tick now, Sink&& sink);

  /// The series-invariant part of a cell's per-hammer dose — pattern
  /// jitters, same-bit/discharged selection, temperature exponential.
  double FixedPerHammerDose(const WeakCell& cell,
                            dram::PhysicalRow victim,
                            std::uint8_t victim_byte,
                            std::uint8_t aggressor_byte, double press,
                            Celsius temperature,
                            const dram::CellEncodingLayout& encoding) const;

  /// Advance all traps of `cell` from the row's last sample to `now`
  /// and return the summed weight of the occupied ones (the command
  /// path's Evaluate, which then moves the row tick).
  double SampleTrapBoost(RowState& state, WeakCell& cell, Tick now,
                         Celsius temperature);
  RowState BuildRowState(dram::BankId bank, dram::PhysicalRow row,
                         Tick now) const;

  /// Accrue dose on one victim row from `count` aggressor activations.
  void AccrueDose(dram::BankId bank, dram::PhysicalRow victim,
                  bool aggressor_is_above, double strength,
                  std::uint64_t count, double press,
                  std::span<const std::uint8_t> aggressor_data, Tick now);

  static std::uint64_t Key(dram::BankId bank, dram::PhysicalRow row) {
    return (static_cast<std::uint64_t>(bank) << 32) | row.value;
  }

  FaultProfile profile_;
  std::uint64_t device_seed_;
  dram::Organization org_;
  /// Manufacturing samplers with hoisted exp(-lambda) limits; drawing
  /// through them is sequence-identical to the free-function path.
  PoissonSampler weak_cell_sampler_;
  PoissonSampler fast_trap_sampler_;
  std::unordered_map<std::uint64_t, RowState> states_;
  /// Rebuilt in place by each one-shot MinFlipHammerCount, so it
  /// allocates nothing once warm.
  MeasureContext one_shot_;
};

using MeasureContext = TrapFaultEngine::MeasureContext;

}  // namespace vrddram::vrd

#endif  // VRDDRAM_VRD_TRAP_ENGINE_H
