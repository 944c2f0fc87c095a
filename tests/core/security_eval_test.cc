#include "core/security_eval.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/campaign.h"

namespace vrddram::core {
namespace {

struct SecurityRig {
  SecurityRig() {
    device = vrd::BuildDevice("M1", 2025);
    engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());
    const auto rows = SelectVulnerableRows(
        *device, *engine, 0, 1, 64, dram::DataPattern::kCheckered0,
        device->timing().tRAS);
    victim = rows.front();
  }
  std::unique_ptr<dram::Device> device;
  vrd::TrapFaultEngine* engine = nullptr;
  dram::RowAddr victim = 0;
};

TEST(SecurityEvalTest, TinyThresholdIsAlwaysSecure) {
  SecurityRig rig;
  const SecurityResult result = EvaluateThreshold(
      *rig.device, *rig.engine, rig.victim, /*threshold=*/4,
      /*episodes=*/200, units::kMillisecond);
  EXPECT_TRUE(result.Secure());
  EXPECT_FALSE(result.first_breach.has_value());
  EXPECT_EQ(result.episodes, 200u);
}

TEST(SecurityEvalTest, HugeThresholdBreachesImmediately) {
  SecurityRig rig;
  const SecurityResult result = EvaluateThreshold(
      *rig.device, *rig.engine, rig.victim, /*threshold=*/10000000,
      /*episodes=*/50, units::kMillisecond);
  EXPECT_FALSE(result.Secure());
  ASSERT_TRUE(result.first_breach.has_value());
  EXPECT_EQ(*result.first_breach, 0u);
  EXPECT_EQ(result.breached_episodes, result.episodes);
}

TEST(SecurityEvalTest, LargerMarginsBreachNoMoreOften) {
  SecurityRig rig;
  const std::vector<double> margins = {0.0, 0.25, 0.50};
  const auto results = EvaluateGuardbands(
      *rig.device, *rig.engine, rig.victim,
      /*profile_measurements=*/5, margins, /*episodes=*/500);
  ASSERT_EQ(results.size(), 3u);
  // Thresholds shrink with margin...
  EXPECT_GT(results[0].configured_threshold,
            results[1].configured_threshold);
  EXPECT_GT(results[1].configured_threshold,
            results[2].configured_threshold);
  // ...and, over equally many episodes, breaches are non-increasing.
  EXPECT_EQ(results[0].episodes, results[2].episodes);
  EXPECT_GE(results[0].breached_episodes, results[1].breached_episodes);
  EXPECT_GE(results[1].breached_episodes, results[2].breached_episodes);
}

TEST(SecurityEvalTest, InvalidArgumentsThrow) {
  SecurityRig rig;
  EXPECT_THROW(EvaluateThreshold(*rig.device, *rig.engine, rig.victim,
                                 0, 10, 1000),
               FatalError);
  EXPECT_THROW(EvaluateThreshold(*rig.device, *rig.engine, rig.victim,
                                 100, 0, 1000),
               FatalError);
  EXPECT_THROW(EvaluateGuardbands(*rig.device, *rig.engine, rig.victim,
                                  5, {}, 10),
               FatalError);
  EXPECT_THROW(EvaluateGuardbands(*rig.device, *rig.engine, rig.victim,
                                  5, {1.5}, 10),
               FatalError);
}

}  // namespace
}  // namespace vrddram::core
