#include "core/security_eval.h"

#include "common/error.h"
#include "core/guardband.h"
#include "core/rdt_profiler.h"

namespace vrddram::core {

SecurityResult EvaluateThreshold(dram::Device& device,
                                 vrd::TrapFaultEngine& engine,
                                 dram::RowAddr victim,
                                 std::uint64_t threshold,
                                 std::uint64_t episodes,
                                 Tick episode_gap,
                                 dram::DataPattern pattern) {
  VRD_FATAL_IF(threshold == 0, "threshold must be positive");
  VRD_FATAL_IF(episodes == 0, "need at least one episode");
  const dram::PhysicalRow phys = device.mapper().ToPhysical(victim);
  VRD_FATAL_IF(phys.value == 0 ||
                   phys.value >= device.org().LargestRowAddress(),
               "edge victim has no double-sided aggressors");

  SecurityResult result;
  result.configured_threshold = threshold;
  result.episodes = episodes;

  // Every episode measures the same (row, pattern, t_on, temperature),
  // so one context serves them all; a held context continues the
  // series bit for bit, and keeps its occupancy memo across episodes.
  vrd::MeasureContext ctx;
  engine.MakeMeasureContext(/*bank=*/0, phys, dram::VictimByte(pattern),
                            dram::AggressorByte(pattern),
                            device.timing().tRAS, device.temperature(),
                            device.encoding(), device.Now(), ctx);
  for (std::uint64_t episode = 0; episode < episodes; ++episode) {
    // The idealized tracker lets exactly `threshold` activations per
    // aggressor through before refreshing the victim. The episode
    // breaches if the row can flip at or below that count right now.
    const double flip_at = engine.MinFlipHammerCount(ctx, device.Now());
    if (flip_at >= 0.0 &&
        flip_at <= static_cast<double>(threshold)) {
      ++result.breached_episodes;
      if (!result.first_breach) {
        result.first_breach = episode;
      }
    }
    // The attack itself plus idle time between attempts.
    const Tick attack_time =
        static_cast<Tick>(2 * threshold) *
        (device.timing().tRAS + device.timing().tRP);
    device.Sleep(attack_time + episode_gap);
  }
  return result;
}

std::vector<SecurityResult> EvaluateGuardbands(
    dram::Device& device, vrd::TrapFaultEngine& engine,
    dram::RowAddr victim, std::size_t profile_measurements,
    const std::vector<std::uint32_t>& margins, std::uint64_t episodes,
    dram::DataPattern pattern) {
  VRD_FATAL_IF(margins.empty(), "need at least one margin");
  VRD_FATAL_IF(profile_measurements == 0, "need profiling measurements");

  ProfilerConfig pc;
  pc.pattern = pattern;
  RdtProfiler profiler(device, pc);
  const std::optional<std::uint64_t> guess = profiler.GuessRdt(victim);
  VRD_FATAL_IF(!guess, "victim does not flip under this pattern");

  const std::int64_t min_rdt = MinObservedRdt(
      profiler.MeasureSeries(victim, *guess, profile_measurements));
  VRD_FATAL_IF(min_rdt <= 0, "profiling observed no flips");

  std::vector<SecurityResult> results;
  results.reserve(margins.size());
  for (const std::uint32_t margin_pct : margins) {
    const std::uint64_t threshold = GuardbandHammerCount(
        static_cast<std::uint64_t>(min_rdt), margin_pct);
    results.push_back(EvaluateThreshold(device, engine, victim,
                                        threshold, episodes,
                                        100 * units::kMillisecond,
                                        pattern));
  }
  return results;
}

}  // namespace vrddram::core
