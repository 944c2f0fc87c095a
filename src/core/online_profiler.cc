#include "core/online_profiler.h"

#include <algorithm>

#include "core/guardband.h"

namespace vrddram::core {

namespace {

/// Measurements taken per maintenance window.
constexpr std::size_t kMeasurementsPerWindow = 4;
/// Guardband bounds in integer percent; the adaptive guardband stays
/// within them.
constexpr std::uint32_t kMinGuardbandPct = 10;
constexpr std::uint32_t kMaxGuardbandPct = 50;
/// Each newly discovered minimum widens the guardband by this much.
constexpr std::uint32_t kWidenOnDiscoveryPct = 10;
/// Each quiet window narrows it by this much (never below the minimum).
constexpr std::uint32_t kNarrowOnQuietPct = 1;

}  // namespace

OnlineRdtProfiler::OnlineRdtProfiler(dram::Device& device,
                                     dram::RowAddr victim)
    : victim_(victim),
      profiler_(device, ProfilerConfig{}),
      guardband_pct_(kMinGuardbandPct) {}

bool OnlineRdtProfiler::RunMaintenanceWindow() {
  ++windows_run_;
  if (!rdt_guess_) {
    rdt_guess_ = profiler_.GuessRdt(victim_);
    if (!rdt_guess_) {
      return false;  // row does not flip (yet); try again next window
    }
  }

  const std::int64_t window_min = MinObservedRdt(profiler_.MeasureSeries(
      victim_, *rdt_guess_, kMeasurementsPerWindow));
  const bool discovered =
      window_min >= 0 &&
      (!observed_min_ ||
       static_cast<std::uint64_t>(window_min) < *observed_min_);
  if (discovered) {
    observed_min_ = static_cast<std::uint64_t>(window_min);
    ++discoveries_;
    guardband_pct_ =
        std::min(kMaxGuardbandPct, guardband_pct_ + kWidenOnDiscoveryPct);
  } else {
    guardband_pct_ =
        std::max(kMinGuardbandPct, guardband_pct_ - kNarrowOnQuietPct);
  }
  return discovered;
}

std::optional<std::uint64_t>
OnlineRdtProfiler::RecommendedThreshold() const {
  if (!observed_min_) {
    return std::nullopt;
  }
  return GuardbandHammerCount(*observed_min_, guardband_pct_);
}

}  // namespace vrddram::core
