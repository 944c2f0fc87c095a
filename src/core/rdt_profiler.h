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
 * Three sweep execution modes trade fidelity for speed:
 *  - kCommandLevel: every ACT/PRE issued individually through a
 *    bender::TestProgram (ground truth; impractically slow at scale,
 *    exactly like real hosts would be without FPGA loops).
 *  - kBulk: the device's O(1) bulk-hammer path per sweep step.
 *  - kAnalytic: one fault-engine query per *measurement*; the sweep
 *    outcome is computed in closed form with trap states frozen at the
 *    measurement start, and device time advances by the full realistic
 *    sweep duration so trap dynamics keep their pace. This is what
 *    makes 100,000-measurement campaigns tractable.
 */
#ifndef VRDDRAM_CORE_RDT_PROFILER_H
#define VRDDRAM_CORE_RDT_PROFILER_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bender/host.h"
#include "dram/device.h"
#include "vrd/trap_engine.h"

namespace vrddram::core {

enum class SweepMode : std::uint8_t {
  kCommandLevel,
  kBulk,
  kAnalytic,
};

struct ProfilerConfig {
  dram::BankId bank = 0;
  dram::DataPattern pattern = dram::DataPattern::kCheckered0;
  /// Aggressor-on time; 0 selects the device's minimum tRAS.
  Tick t_on = 0;
  SweepMode mode = SweepMode::kAnalytic;

  /// Alg. 1 sweep bounds relative to RDT_guess.
  double sweep_lo_frac = 0.5;
  double sweep_hi_frac = 3.0;
  double sweep_step_frac = 0.01;

  /// find_victim accepts rows whose guessed RDT is below this.
  std::uint64_t find_victim_threshold = 40000;
  /// Measurements averaged into RDT_guess (Alg. 1: 10).
  std::size_t guess_measurements = 10;
  /// Upper bound of the geometric scan used to seed a guess.
  std::uint64_t guess_cap = 400000;
};

/// Sentinel recorded when no hammer count in the sweep grid flips.
inline constexpr std::int64_t kNoFlip = -1;

/// Smallest flipping measurement of a series, or kNoFlip if none
/// flipped.
std::int64_t MinObservedRdt(std::span<const std::int64_t> series);

class RdtProfiler {
 public:
  RdtProfiler(dram::Device& device, ProfilerConfig config);

  const ProfilerConfig& config() const { return config_; }
  Tick EffectiveTOn() const;

  /**
   * One RDT measurement (Alg. 1 lines 18-26): sweep hammer counts and
   * return the first flipping count, or kNoFlip. Builds the series
   * context afresh; loops measure through MeasureSeries instead.
   */
  std::int64_t MeasureOnce(dram::RowAddr victim, std::uint64_t rdt_guess);

  /// `n` successive measurements of the same victim.
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
   * Alg. 1's guess_RDT: seed with a geometric scan, then average
   * `guess_measurements` sweep measurements. nullopt when the row does
   * not flip below guess_cap.
   */
  std::optional<std::uint64_t> GuessRdt(dram::RowAddr victim);

  struct Victim {
    dram::RowAddr row = 0;
    std::uint64_t rdt_guess = 0;
  };

  /**
   * Alg. 1's find_victim: scan logical rows in [begin, end) and return
   * the first whose guessed RDT is below the threshold.
   */
  std::optional<Victim> FindVictim(dram::RowAddr begin, dram::RowAddr end);

 private:
  struct Grid {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;    ///< exclusive
    std::uint64_t step = 0;
  };
  Grid GridFor(std::uint64_t rdt_guess) const;

  /**
   * Everything about one (victim, rdt_guess) series that is invariant
   * across its measurements: the sweep grid, the physical row, the
   * timing-derived constants of the analytic duration model, and the
   * engine-side MeasureContext (pinned row state, per-cell invariant
   * multipliers, decay memo). Computed once per series instead of once
   * per measurement, which keeps the 100k-measurement inner loop free
   * of mapper lookups, hash-map probes, and invariant recomputation.
   */
  struct SeriesContext {
    Grid grid;
    dram::PhysicalRow phys{0};
    Tick t_on = 0;            ///< EffectiveTOn()
    Tick fixed_per_step = 0;  ///< IterationTime(0)
    Tick per_hammer = 0;      ///< 2 * (t_on + tRP)
    /// Engine-side series cache (kAnalytic mode only). Mutated by
    /// every measurement (trap-decay memo), hence the non-const
    /// threading below.
    vrd::MeasureContext measure;
  };
  /// Rebuild `ctx` in place (engine-side context reused with retained
  /// capacity): the allocation-free path for series-over-series loops.
  void MakeSeriesContext(dram::RowAddr victim, std::uint64_t rdt_guess,
                         SeriesContext& ctx);

  std::int64_t MeasureOnceWith(SeriesContext& ctx,
                               dram::RowAddr victim);
  std::int64_t MeasureOnceSwept(dram::RowAddr victim,
                                const SeriesContext& ctx);
  std::int64_t MeasureOnceAnalytic(SeriesContext& ctx);

  /// Elapsed time of one init+hammer+read iteration at hammer count hc.
  Tick IterationTime(std::uint64_t hc) const;

  /// Scratch series context reused by every measuring call so
  /// back-to-back series on one profiler stop allocating once every
  /// vector has reached its high-water capacity. Never live across a
  /// call boundary.
  SeriesContext series_scratch_;

  dram::Device* device_;
  bender::TestHost host_;
  ProfilerConfig config_;
  /// Non-null when the device's model is a TrapFaultEngine (enables
  /// kAnalytic).
  vrd::TrapFaultEngine* engine_ = nullptr;
};

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_RDT_PROFILER_H
