/**
 * @file
 * Security evaluation of guardbanded thresholds (§6.1): a mitigation
 * configured with threshold T preventively refreshes a victim before
 * its aggressors reach T activations. Under VRD the victim's *actual*
 * flipping count changes per hammering episode; the defense fails the
 * first time an episode's flipping count drops below T.
 *
 * EvaluateThreshold simulates repeated attack episodes against the
 * trap fault engine (an idealized tracker that always refreshes at
 * exactly T activations - the best case for the defense) and reports
 * when, if ever, a bitflip slips through.
 */
#ifndef VRDDRAM_CORE_SECURITY_EVAL_H
#define VRDDRAM_CORE_SECURITY_EVAL_H

#include <cstdint>
#include <optional>
#include <vector>

#include "dram/device.h"
#include "vrd/trap_engine.h"

namespace vrddram::core {

struct SecurityResult {
  std::uint64_t configured_threshold = 0;
  std::uint64_t episodes = 0;
  std::uint64_t breached_episodes = 0;  ///< episodes with a bitflip
  /// First episode in which the defense failed (nullopt: never).
  std::optional<std::uint64_t> first_breach;

  bool Secure() const { return breached_episodes == 0; }
};

/**
 * Simulate `episodes` double-sided attack episodes against `victim`
 * (logical row). In each episode the attacker hammers until the
 * idealized tracker intervenes at `threshold` activations; the episode
 * breaches if the row's flipping count at that moment is at or below
 * the threshold. Episodes are spaced `episode_gap` apart in device
 * time so trap states evolve realistically.
 */
SecurityResult EvaluateThreshold(dram::Device& device,
                                 vrd::TrapFaultEngine& engine,
                                 dram::RowAddr victim,
                                 std::uint64_t threshold,
                                 std::uint64_t episodes,
                                 Tick episode_gap,
                                 dram::DataPattern pattern =
                                     dram::DataPattern::kCheckered0);

/**
 * Sweep guardbands: profile the row's minimum RDT with
 * `profile_measurements` measurements, then evaluate the threshold
 * GuardbandHammerCount sets at each margin (integer percent below that
 * minimum, each under 100). Returns one SecurityResult per margin, in
 * the given order.
 */
std::vector<SecurityResult> EvaluateGuardbands(
    dram::Device& device, vrd::TrapFaultEngine& engine,
    dram::RowAddr victim, std::size_t profile_measurements,
    const std::vector<std::uint32_t>& margins, std::uint64_t episodes,
    dram::DataPattern pattern = dram::DataPattern::kCheckered0);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_SECURITY_EVAL_H
