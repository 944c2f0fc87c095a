/**
 * @file
 * Cycle-approximate four-core DDR5 memory-system model used for the
 * §6.3 mitigation-overhead study (Fig. 14). Event-driven: each core is
 * a closed-loop generator with a bounded miss window (MLP); the single
 * memory channel models per-bank row-buffer state, bank timing
 * (tRP/tRCD/tCL/tCCD), shared data-bus occupancy, periodic refresh,
 * and the per-activation penalties charged by the configured
 * read-disturbance mitigation.
 */
#ifndef VRDDRAM_MEMSIM_SYSTEM_H
#define VRDDRAM_MEMSIM_SYSTEM_H

#include <vector>

#include "dram/timing.h"
#include "memsim/mitigation.h"
#include "memsim/workload.h"

namespace vrddram::memsim {

/// Request scheduling policy.
enum class Scheduler : std::uint8_t {
  /// Serve strictly in core-issue order (baseline).
  kInOrder,
  /// FR-FCFS: among requests ready at the same instant, row-buffer
  /// hits bypass older misses.
  kFrFcfs,
};

/// One workload mix on one DDR5-8800 channel (32 banks of 2^17 rows,
/// 8 outstanding misses per core).
struct SystemConfig {
  Scheduler scheduler = Scheduler::kInOrder;
  std::size_t requests_per_core = 20000;
  MitigationKind mitigation = MitigationKind::kNone;
  std::uint64_t rdt = 1024;  ///< configured read disturbance threshold
  std::uint64_t seed = 1;
  bool refresh_enabled = true;
  /// Keep every request's latency in SystemResult::latencies, which
  /// LatencyPercentileNs reads (8 bytes per request).
  bool record_latencies = false;
};

struct CoreStats {
  std::uint64_t requests = 0;
  Tick finish_time = 0;
  double instructions = 0.0;
  /// Instructions per nanosecond (any consistent unit works for the
  /// normalized metrics).
  double Throughput() const {
    return finish_time > 0
               ? instructions / units::ToNs(finish_time)
               : 0.0;
  }
};

struct SystemResult {
  std::vector<CoreStats> cores;
  Tick makespan = 0;
  std::uint64_t activations = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t preventive_actions = 0;
  /// Sum of per-request (completion - issue) latencies.
  Tick total_latency = 0;
  std::uint64_t total_requests = 0;
  /// Every request's latency in issue order, when
  /// SystemConfig::record_latencies is set; empty otherwise.
  std::vector<Tick> latencies;

  /// Average memory latency in nanoseconds.
  double AvgLatencyNs() const {
    return total_requests == 0
               ? 0.0
               : units::ToNs(total_latency) /
                     static_cast<double>(total_requests);
  }

  /// Latency percentile in nanoseconds (p in [0, 100]).
  double LatencyPercentileNs(double p) const;
};

/// Per-core request streams of one mix: streams[c] is core c's
/// address stream, in order.
using MixStreams = std::vector<std::vector<Request>>;

/**
 * The first `config.requests_per_core` requests of each core of `mix`.
 * Core c's stream depends only on (mix.cores[c], config.seed, c), not
 * on the mitigation, the RDT or the scheduler, so every simulation of
 * one mix at one seed can replay the same streams.
 */
MixStreams MakeMixStreams(const WorkloadMix& mix,
                          const SystemConfig& config);

/// Simulate one mix under one configuration, replaying `streams`
/// (one per core, each at least `config.requests_per_core` long).
SystemResult SimulateMix(const WorkloadMix& mix, const SystemConfig& config,
                         const MixStreams& streams);

/// SimulateMix over the mix's own MakeMixStreams.
SystemResult SimulateMix(const WorkloadMix& mix,
                         const SystemConfig& config);

/**
 * SimulateMix(mix, configs[i], streams) for every i, in order, with
 * each distinct run simulated once. The configs may differ only in
 * `mitigation`, `rdt` and `record_latencies`. A result is reused, bit
 * for bit, where one of three rules proves the run identical to one
 * already simulated:
 *  1. Graphene's estimate of a row never exceeds the row's activation
 *     count, so a Graphene whose threshold exceeds the baseline run's
 *     largest per-(bank, row) count never acts: its run is the
 *     baseline (when one of the configs is the baseline).
 *  2. A PRAC count is the activation count until the first action.
 *     Visiting PRAC configs by decreasing RDT, the first simulated one
 *     that never acts is the reference; a later one whose threshold
 *     exceeds the reference's largest per-row count is the reference.
 *  3. Trackers whose decisions depend on the same number (Graphene's
 *     and PRAC's thresholds, MINT's RFM interval, PARA's RDT) make the
 *     same run.
 * A result that records latencies is only reused from one that did.
 */
std::vector<SystemResult> SimulateRuns(
    const WorkloadMix& mix, const std::vector<SystemConfig>& configs,
    const MixStreams& streams);

/**
 * Fig. 14 metric: weighted speedup of the mitigated run normalized to
 * the baseline run (same mix, no mitigation): the mean over cores of
 * per-core throughput ratios.
 */
double NormalizedPerformance(const SystemResult& mitigated,
                             const SystemResult& baseline);

}  // namespace vrddram::memsim

#endif  // VRDDRAM_MEMSIM_SYSTEM_H
