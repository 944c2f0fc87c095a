#include "core/online_profiler.h"

#include <algorithm>

#include "common/error.h"

namespace vrddram::core {

OnlineRdtProfiler::OnlineRdtProfiler(dram::Device& device,
                                     dram::RowAddr victim,
                                     OnlineProfilerConfig config,
                                     ProfilerConfig profiler_config)
    : device_(&device),
      victim_(victim),
      config_(config),
      profiler_(device, profiler_config),
      guardband_(config.min_guardband) {
  VRD_FATAL_IF(config.measurements_per_window == 0,
               "windows need measurements");
  VRD_FATAL_IF(config.min_guardband < 0.0 ||
                   config.max_guardband >= 1.0 ||
                   config.min_guardband > config.max_guardband,
               "invalid guardband bounds");
}

bool OnlineRdtProfiler::RunMaintenanceWindow() {
  ++windows_run_;
  if (!rdt_guess_) {
    rdt_guess_ = profiler_.GuessRdt(victim_);
    if (!rdt_guess_) {
      return false;  // row does not flip (yet); try again next window
    }
  }

  const std::int64_t window_min = MinObservedRdt(profiler_.MeasureSeries(
      victim_, *rdt_guess_, config_.measurements_per_window));
  const bool discovered =
      window_min >= 0 &&
      (!observed_min_ ||
       static_cast<std::uint64_t>(window_min) < *observed_min_);
  if (discovered) {
    observed_min_ = static_cast<std::uint64_t>(window_min);
    ++discoveries_;
    guardband_ = std::min(config_.max_guardband,
                          guardband_ + config_.widen_on_discovery);
  } else {
    guardband_ = std::max(config_.min_guardband,
                          guardband_ - config_.narrow_on_quiet);
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
