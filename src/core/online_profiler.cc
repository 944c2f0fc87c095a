#include "core/online_profiler.h"

#include <algorithm>

namespace vrddram::core {

namespace {

/// Measurements taken per maintenance window.
constexpr std::size_t kMeasurementsPerWindow = 4;
/// Guardband bounds; the adaptive guardband stays within them.
constexpr double kMinGuardband = 0.10;
constexpr double kMaxGuardband = 0.50;
/// Each newly discovered minimum widens the guardband by this much.
constexpr double kWidenOnDiscovery = 0.10;
/// Each quiet window narrows it by this much (never below the minimum).
constexpr double kNarrowOnQuiet = 0.01;

}  // namespace

OnlineRdtProfiler::OnlineRdtProfiler(dram::Device& device,
                                     dram::RowAddr victim)
    : victim_(victim),
      profiler_(device, ProfilerConfig{}),
      guardband_(kMinGuardband) {}

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
    guardband_ = std::min(kMaxGuardband, guardband_ + kWidenOnDiscovery);
  } else {
    guardband_ = std::max(kMinGuardband, guardband_ - kNarrowOnQuiet);
  }
  return discovered;
}

std::optional<std::uint64_t>
OnlineRdtProfiler::RecommendedThreshold() const {
  if (!observed_min_) {
    return std::nullopt;
  }
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(*observed_min_) * (1.0 - guardband_)));
}

}  // namespace vrddram::core
