#include "core/online_profiler.h"

#include <gtest/gtest.h>

#include "core/campaign.h"
#include "core/guardband.h"
#include "vrd/chip_catalog.h"

namespace vrddram::core {
namespace {

struct OnlineRig {
  OnlineRig() {
    device = vrd::BuildDevice("H3", 2025);
    auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());
    const auto rows = SelectVulnerableRows(
        *device, *engine, 0, 1, 64, dram::DataPattern::kCheckered0,
        device->timing().tRAS);
    victim = rows.front();
  }
  std::unique_ptr<dram::Device> device;
  dram::RowAddr victim = 0;
};

TEST(OnlineProfilerTest, NoThresholdBeforeFirstFlip) {
  OnlineRig rig;
  OnlineRdtProfiler online(*rig.device, rig.victim);
  EXPECT_FALSE(online.RecommendedThreshold().has_value());
  EXPECT_FALSE(online.observed_min().has_value());
}

TEST(OnlineProfilerTest, RunningMinimumOnlyTightens) {
  OnlineRig rig;
  OnlineRdtProfiler online(*rig.device, rig.victim);
  std::optional<std::uint64_t> previous;
  for (int window = 0; window < 40; ++window) {
    online.RunMaintenanceWindow();
    rig.device->Sleep(units::kSecond);
    const auto current = online.observed_min();
    if (previous && current) {
      EXPECT_LE(*current, *previous);
    }
    if (current) {
      previous = current;
    }
  }
  ASSERT_TRUE(previous.has_value());
  EXPECT_EQ(online.windows_run(), 40u);
  EXPECT_GE(online.discoveries(), 1u);
}

TEST(OnlineProfilerTest, ThresholdBelowObservedMinByGuardband) {
  OnlineRig rig;
  OnlineRdtProfiler online(*rig.device, rig.victim);
  for (int window = 0; window < 20; ++window) {
    online.RunMaintenanceWindow();
    const auto min = online.observed_min();
    const auto threshold = online.RecommendedThreshold();
    ASSERT_EQ(min.has_value(), threshold.has_value()) << window;
    if (min) {
      EXPECT_LT(*threshold, *min) << window;
      EXPECT_EQ(*threshold,
                GuardbandHammerCount(*min, online.guardband_pct()))
          << window;
    }
  }
  EXPECT_TRUE(online.observed_min().has_value());
}

TEST(OnlineProfilerTest, GuardbandStaysWithinBounds) {
  OnlineRig rig;
  OnlineRdtProfiler online(*rig.device, rig.victim);
  // The adaptive guardband is bounded to [10%, 50%].
  for (int window = 0; window < 100; ++window) {
    online.RunMaintenanceWindow();
    EXPECT_GE(online.guardband_pct(), 10u);
    EXPECT_LE(online.guardband_pct(), 50u);
  }
}

}  // namespace
}  // namespace vrddram::core
