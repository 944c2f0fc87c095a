/**
 * @file
 * The paper's Algorithm 1: read-disturbance-threshold (RDT) profiling.
 *
 * find_victim scans rows for one that is vulnerable enough to test
 * (mean guessed RDT below 40,000 at the minimum tAggOn), and test_loop
 * repeatedly measures the victim's RDT by sweeping hammer counts from
 * RDT_guess/2 to 3*RDT_guess in steps of RDT_guess/100 and recording
 * the first count that produces a bitflip.
 *
 * Each measurement is one fault-engine query: the sweep outcome is
 * computed in closed form with trap states frozen at the measurement
 * start, and device time advances by the full realistic sweep
 * duration so trap dynamics keep their pace. This is what makes
 * 100,000-measurement campaigns tractable. The step-by-step device
 * sweep it replaces lives in tests/ as the reference the closed form
 * is checked against.
 */
#ifndef VRDDRAM_CORE_RDT_PROFILER_H
#define VRDDRAM_CORE_RDT_PROFILER_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dram/device.h"
#include "vrd/trap_engine.h"

namespace vrddram::core {

struct ProfilerConfig {
  dram::BankId bank = 0;
  dram::DataPattern pattern = dram::DataPattern::kCheckered0;
  /// Aggressor-on time; 0 selects the device's minimum tRAS.
  Tick t_on = 0;
};

/// Sentinel recorded when no hammer count in the sweep grid flips.
inline constexpr std::int64_t kNoFlip = -1;

/// Smallest flipping measurement of a series, or kNoFlip if none
/// flipped.
std::int64_t MinObservedRdt(std::span<const std::int64_t> series);

class RdtProfiler {
 public:
  /// The device's model must be a TrapFaultEngine (FatalError
  /// otherwise).
  RdtProfiler(dram::Device& device, ProfilerConfig config);

  const ProfilerConfig& config() const { return config_; }
  Tick EffectiveTOn() const;

  /**
   * `n` successive RDT measurements of the same victim (Alg. 1 lines
   * 18-26 each): sweep hammer counts and record the first flipping
   * count, or kNoFlip.
   */
  std::vector<std::int64_t> MeasureSeries(dram::RowAddr victim,
                                          std::uint64_t rdt_guess,
                                          std::size_t n);

  /// Reuse overload: write the series into caller-owned scratch
  /// (cleared first, capacity retained). With a hoisted `out`, a
  /// campaign shard's measurement loop allocates nothing after the
  /// first series — the profiler-side series context is likewise
  /// rebuilt in place (see SeriesContext).
  void MeasureSeries(dram::RowAddr victim, std::uint64_t rdt_guess,
                     std::size_t n, std::vector<std::int64_t>& out);

  /**
   * Alg. 1's guess_RDT: seed with the row's current flipping count,
   * then average 10 sweep measurements. nullopt when the row does not
   * flip below 400,000 hammers.
   */
  std::optional<std::uint64_t> GuessRdt(dram::RowAddr victim);

  struct Victim {
    dram::RowAddr row = 0;
    std::uint64_t rdt_guess = 0;
  };

  /**
   * Alg. 1's find_victim: scan logical rows in [begin, end) and return
   * the first whose guessed RDT is below 40,000.
   */
  std::optional<Victim> FindVictim(dram::RowAddr begin, dram::RowAddr end);

 private:
  struct Grid {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;    ///< exclusive
    std::uint64_t step = 0;
  };
  static Grid GridFor(std::uint64_t rdt_guess);

  /**
   * Everything about one (victim, rdt_guess) series that is invariant
   * across its measurements: the sweep grid, the timing-derived
   * constants of the analytic duration model (with the whole-grid
   * sweep's duration, which every no-flip measurement takes), and the
   * engine-side MeasureContext (pinned row state, per-cell invariant
   * multipliers, occupancy-probability memo). Computed once per series
   * instead of once per measurement, which keeps the 100k-measurement
   * inner loop free of mapper lookups, hash-map probes, and invariant
   * recomputation.
   */
  struct SeriesContext {
    Grid grid;
    Tick fixed_per_step = 0;  ///< FixedIterationTime()
    Tick per_hammer = 0;      ///< 2 * (EffectiveTOn() + tRP)
    /// The grid's last index, (hi - 1 - lo) / step, as a double: the
    /// bound a measurement's index is checked against before any cast.
    double last_index = 0.0;
    /// Device time of a sweep that flips nowhere on the grid.
    Tick no_flip_duration = 0;
    /// Engine-side series cache. Mutated by every measurement (memo
    /// and kernel scratch), hence the non-const threading below.
    vrd::MeasureContext measure;
  };
  /// Rebuild `ctx` in place (engine-side context reused with retained
  /// capacity): the allocation-free path for series-over-series loops.
  void MakeSeriesContext(dram::RowAddr victim, std::uint64_t rdt_guess,
                         SeriesContext& ctx);

  std::int64_t MeasureOnceWith(SeriesContext& ctx);

  /// Device time of a sweep that runs the grid's first `steps` hammer
  /// counts (steps >= 1).
  static Tick SweepDuration(const SeriesContext& ctx, std::uint64_t steps);

  /// Elapsed time of one sweep iteration apart from its hammers: the
  /// neighbourhood initialization plus the victim readback.
  Tick FixedIterationTime() const;

  /// Scratch series context reused by every measuring call so
  /// back-to-back series on one profiler stop allocating once every
  /// vector has reached its high-water capacity. Never live across a
  /// call boundary.
  SeriesContext series_scratch_;

  dram::Device* device_;
  ProfilerConfig config_;
  /// The device's fault model; non-null by construction.
  vrd::TrapFaultEngine* engine_;
};

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_RDT_PROFILER_H
