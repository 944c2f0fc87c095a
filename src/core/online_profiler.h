/**
 * @file
 * Online RDT profiling with a runtime-configurable threshold - the
 * future-work direction the paper calls for (§6.5, directions 2-3).
 *
 * Instead of one offline profiling pass, an OnlineRdtProfiler keeps
 * re-measuring a row during idle maintenance windows. Its running
 * minimum only tightens over time; whenever a new, lower RDT state is
 * observed, the exported threshold (running minimum shrunk by an
 * adaptive guardband) drops, and a cooperating mitigation reconfigures
 * itself. The adaptive guardband widens when minima keep being
 * discovered (the row is VRD-active) and narrows as the estimate
 * stabilizes, within [10%, 50%].
 *
 * Thread safety: none; a profiler belongs to one thread. Callers run
 * maintenance windows and read the recommendation on that thread. A
 * caller that polls from another thread must serialize access itself.
 */
#ifndef VRDDRAM_CORE_ONLINE_PROFILER_H
#define VRDDRAM_CORE_ONLINE_PROFILER_H

#include <cstdint>
#include <optional>

#include "core/rdt_profiler.h"

namespace vrddram::core {

/// Profiles bank 0 with the Checkered0 pattern at the minimum tRAS.
class OnlineRdtProfiler {
 public:
  OnlineRdtProfiler(dram::Device& device, dram::RowAddr victim);

  /**
   * Run one maintenance window: take a few measurements, fold them
   * into the running minimum, adapt the guardband. Returns true if a
   * new minimum was discovered (the mitigation must reconfigure).
   */
  bool RunMaintenanceWindow();

  /// Running minimum observed so far (nullopt before the first flip).
  std::optional<std::uint64_t> observed_min() const { return observed_min_; }

  /// Current adaptive guardband, in integer percent (10..50).
  std::uint32_t guardband_pct() const { return guardband_pct_; }

  /**
   * Threshold to program into the mitigation right now:
   * GuardbandHammerCount of the running minimum at the adaptive
   * guardband. nullopt until the row has flipped at least once.
   */
  std::optional<std::uint64_t> RecommendedThreshold() const;

  std::size_t windows_run() const { return windows_run_; }
  std::size_t discoveries() const { return discoveries_; }

 private:
  dram::RowAddr victim_;
  RdtProfiler profiler_;
  std::optional<std::uint64_t> rdt_guess_;
  std::optional<std::uint64_t> observed_min_;
  std::uint32_t guardband_pct_;
  std::size_t windows_run_ = 0;
  std::size_t discoveries_ = 0;
};

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_ONLINE_PROFILER_H
