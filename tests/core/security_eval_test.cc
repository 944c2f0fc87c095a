#include "core/security_eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "core/campaign.h"
#include "core/guardband.h"

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

// The per-episode loop with a one-shot engine query each time, as the
// evaluation ran before it held one MeasureContext.
SecurityResult OneShotEpisodes(SecurityRig& rig, std::uint64_t threshold,
                               std::uint64_t episodes, Tick gap) {
  dram::Device& device = *rig.device;
  const dram::PhysicalRow phys = device.mapper().ToPhysical(rig.victim);
  SecurityResult result;
  result.configured_threshold = threshold;
  result.episodes = episodes;
  for (std::uint64_t episode = 0; episode < episodes; ++episode) {
    const double flip_at = rig.engine->MinFlipHammerCount(
        0, phys, dram::VictimByte(dram::DataPattern::kCheckered0),
        dram::AggressorByte(dram::DataPattern::kCheckered0),
        device.timing().tRAS, device.temperature(), device.encoding(),
        device.Now());
    if (flip_at >= 0.0 && flip_at <= static_cast<double>(threshold)) {
      ++result.breached_episodes;
      if (!result.first_breach) {
        result.first_breach = episode;
      }
    }
    device.Sleep(static_cast<Tick>(2 * threshold) *
                     (device.timing().tRAS + device.timing().tRP) +
                 gap);
  }
  return result;
}

TEST(SecurityEvalTest, HeldContextContinuesTheOneShotSeries) {
  // A threshold at the row's median flipping count breaches in some
  // episodes and not in others.
  SecurityRig probe;
  std::vector<double> counts;
  for (int i = 0; i < 41; ++i) {
    counts.push_back(probe.engine->MinFlipHammerCount(
        0, probe.device->mapper().ToPhysical(probe.victim), 0x55, 0xAA,
        probe.device->timing().tRAS, probe.device->temperature(),
        probe.device->encoding(), probe.device->Now() + i * 1000000));
  }
  std::nth_element(counts.begin(), counts.begin() + 20, counts.end());
  const auto threshold = static_cast<std::uint64_t>(counts[20]);

  SecurityRig held;
  SecurityRig one_shot;
  const SecurityResult got = EvaluateThreshold(
      *held.device, *held.engine, held.victim, threshold,
      /*episodes=*/300, units::kMillisecond);
  const SecurityResult want = OneShotEpisodes(one_shot, threshold, 300,
                                              units::kMillisecond);
  EXPECT_GT(want.breached_episodes, 0u);
  EXPECT_LT(want.breached_episodes, want.episodes);
  EXPECT_EQ(got.breached_episodes, want.breached_episodes);
  EXPECT_EQ(got.first_breach, want.first_breach);
  EXPECT_EQ(held.device->Now(), one_shot.device->Now());
  // The row's trap state and RNG stream continue identically.
  const dram::PhysicalRow phys =
      held.device->mapper().ToPhysical(held.victim);
  EXPECT_EQ(held.engine->MinFlipHammerCount(
                0, phys, 0x55, 0xAA, held.device->timing().tRAS,
                held.device->temperature(), held.device->encoding(),
                held.device->Now()),
            one_shot.engine->MinFlipHammerCount(
                0, phys, 0x55, 0xAA, one_shot.device->timing().tRAS,
                one_shot.device->temperature(),
                one_shot.device->encoding(), one_shot.device->Now()));
}

TEST(SecurityEvalTest, LargerMarginsBreachNoMoreOften) {
  SecurityRig rig;
  const std::vector<std::uint32_t> margins = {0, 25, 50};
  const auto results = EvaluateGuardbands(
      *rig.device, *rig.engine, rig.victim,
      /*profile_measurements=*/5, margins, /*episodes=*/500);
  ASSERT_EQ(results.size(), 3u);
  // Margin 0 configures the profiled minimum itself, every other
  // margin the integer rule below it, so thresholds shrink...
  for (std::size_t i = 0; i < margins.size(); ++i) {
    EXPECT_EQ(results[i].configured_threshold,
              GuardbandHammerCount(results[0].configured_threshold,
                                   margins[i]))
        << margins[i];
  }
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
                                  5, {100}, 10),
               FatalError);
}

}  // namespace
}  // namespace vrddram::core
