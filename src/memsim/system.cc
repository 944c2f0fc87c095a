#include "memsim/system.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "common/error.h"
#include "memsim/row_table.h"

namespace vrddram::memsim {

namespace {

/// The channel: one DDR5-8800 rank of kNumBanks banks of 2^17 rows.
const dram::TimingParams kTiming = dram::MakeDdr5_8800();
constexpr std::uint32_t kRowsPerBank = 1u << 17;
/// Outstanding misses per core.
constexpr std::uint32_t kMlp = 8;

std::unique_ptr<Mitigation> MakeTracker(const SystemConfig& config) {
  return MakeMitigation(config.mitigation, config.rdt, kTiming,
                        MixSeed(config.seed, 0x317));
}

/// Forwards each activation to a tracker and counts it per (bank,
/// row), for SimulateRuns' largest per-row count.
class RowCounter final : public Mitigation {
 public:
  explicit RowCounter(Mitigation& tracker) : tracker_(tracker) {}

  Penalty OnActivate(std::uint32_t bank, std::uint32_t row) override {
    max_count_ = std::max(max_count_, ++counts_[RowKey(bank, row)]);
    const Penalty penalty = tracker_.OnActivate(bank, row);
    preventive_actions_ = tracker_.preventive_actions();
    return penalty;
  }

  std::uint64_t max_count() const { return max_count_; }

 private:
  Mitigation& tracker_;
  RowTable<std::uint64_t> counts_;
  std::uint64_t max_count_ = 0;
};

/// The one number besides the activation stream that a tracker's
/// decisions depend on.
std::uint64_t DecisionParameter(const SystemConfig& config) {
  switch (config.mitigation) {
    case MitigationKind::kNone:
      return 0;
    case MitigationKind::kGraphene:
      return Graphene::ThresholdFor(config.rdt);
    case MitigationKind::kPrac:
      return Prac::ThresholdFor(config.rdt);
    case MitigationKind::kPara:
      return config.rdt;
    case MitigationKind::kMint:
      return Mint::IntervalFor(config.rdt);
  }
  throw PanicError("unknown mitigation kind");
}

/// `from` with its latencies only if `with_latencies`.
SystemResult CopyResult(SystemResult& from, bool with_latencies) {
  if (with_latencies) {
    return from;
  }
  std::vector<Tick> latencies = std::move(from.latencies);
  SystemResult copy = from;
  from.latencies = std::move(latencies);
  return copy;
}

SystemResult Simulate(const WorkloadMix& mix, const SystemConfig& config,
                      const MixStreams& streams, Mitigation& tracker);

}  // namespace

MixStreams MakeMixStreams(const WorkloadMix& mix,
                          const SystemConfig& config) {
  MixStreams streams(mix.cores.size());
  for (std::size_t c = 0; c < mix.cores.size(); ++c) {
    CoreGenerator generator(mix.cores[c], kNumBanks, kRowsPerBank,
                            MixSeed(config.seed, c, 0x3e4));
    streams[c].reserve(config.requests_per_core);
    for (std::size_t i = 0; i < config.requests_per_core; ++i) {
      streams[c].push_back(generator.Next());
    }
  }
  return streams;
}

SystemResult SimulateMix(const WorkloadMix& mix,
                         const SystemConfig& config) {
  return SimulateMix(mix, config, MakeMixStreams(mix, config));
}

SystemResult SimulateMix(const WorkloadMix& mix, const SystemConfig& config,
                         const MixStreams& streams) {
  return Simulate(mix, config, streams, *MakeTracker(config));
}

std::vector<SystemResult> SimulateRuns(
    const WorkloadMix& mix, const std::vector<SystemConfig>& configs,
    const MixStreams& streams) {
  for (const SystemConfig& config : configs) {
    const SystemConfig& first = configs.front();
    VRD_FATAL_IF(config.scheduler != first.scheduler ||
                     config.requests_per_core != first.requests_per_core ||
                     config.seed != first.seed ||
                     config.refresh_enabled != first.refresh_enabled,
                 "SimulateRuns: configs may differ only in mitigation, rdt "
                 "and record_latencies");
  }
  // Baselines first, since rule 1 reads their largest count; PRAC last
  // and by decreasing RDT, for rule 2.
  auto rank = [&](std::size_t i) {
    const MitigationKind kind = configs[i].mitigation;
    return std::pair(kind != MitigationKind::kNone,
                     kind == MitigationKind::kPrac ? ~configs[i].rdt : 0);
  };
  std::vector<std::size_t> order(configs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rank(a) < rank(b);
                   });
  const bool any_graphene =
      std::any_of(configs.begin(), configs.end(), [](const auto& config) {
        return config.mitigation == MitigationKind::kGraphene;
      });

  std::vector<SystemResult> results(configs.size());
  // The first simulated run per (kind, decision parameter): rule 3.
  std::map<std::pair<MitigationKind, std::uint64_t>, std::size_t> simulated;
  // Counted runs and their largest per-row counts: rules 1 and 2.
  std::optional<std::size_t> baseline;
  std::optional<std::size_t> prac_reference;
  std::uint64_t baseline_max = 0;
  std::uint64_t prac_max = 0;
  for (const std::size_t i : order) {
    const SystemConfig& config = configs[i];
    const MitigationKind kind = config.mitigation;
    const std::uint64_t parameter = DecisionParameter(config);
    // A run proven identical to this one, if it has the latencies this
    // config asks for.
    auto usable = [&](std::optional<std::size_t> from) {
      return from &&
             (!config.record_latencies || configs[*from].record_latencies);
    };
    std::optional<std::size_t> same;
    if (kind == MitigationKind::kGraphene && parameter > baseline_max) {
      same = baseline;
    } else if (kind == MitigationKind::kPrac && parameter > prac_max) {
      same = prac_reference;
    }
    if (!usable(same)) {
      const auto it = simulated.find({kind, parameter});
      same = it == simulated.end() ? std::nullopt
                                   : std::optional(it->second);
    }
    if (usable(same)) {
      results[i] = CopyResult(results[*same], config.record_latencies);
      continue;
    }

    const std::unique_ptr<Mitigation> tracker = MakeTracker(config);
    if ((kind == MitigationKind::kNone && any_graphene && !baseline) ||
        (kind == MitigationKind::kPrac && !prac_reference)) {
      RowCounter counter(*tracker);
      results[i] = Simulate(mix, config, streams, counter);
      if (kind == MitigationKind::kNone) {
        baseline = i;
        baseline_max = counter.max_count();
      } else if (results[i].preventive_actions == 0) {
        prac_reference = i;
        prac_max = counter.max_count();
      }
    } else {
      results[i] = Simulate(mix, config, streams, *tracker);
    }
    simulated.try_emplace({kind, parameter}, i);
  }
  return results;
}

namespace {

SystemResult Simulate(const WorkloadMix& mix, const SystemConfig& config,
                      const MixStreams& streams, Mitigation& tracker) {
  VRD_FATAL_IF(mix.cores.empty(), "mix has no cores");
  VRD_FATAL_IF(streams.size() != mix.cores.size(),
               "need one request stream per core");
  for (const std::vector<Request>& stream : streams) {
    VRD_FATAL_IF(stream.size() < config.requests_per_core,
                 "request stream shorter than requests_per_core");
  }
  const dram::TimingParams& t = kTiming;

  // Per-core pacing state.
  const std::size_t num_cores = mix.cores.size();
  std::vector<Tick> think(num_cores);
  std::vector<std::vector<Tick>> completion_window(num_cores);
  std::vector<std::uint64_t> issued(num_cores, 0);
  std::vector<Tick> next_issue(num_cores, 0);
  std::vector<Tick> core_finish(num_cores, 0);
  for (std::size_t c = 0; c < num_cores; ++c) {
    think[c] = ThinkTime(mix.cores[c]);
    completion_window[c].assign(kMlp, 0);
  }

  // Bank, bus, and rank-level activation-budget state. Activations
  // across the rank are spaced by at least max(tRRD_S, tFAW/4);
  // preventive refreshes consume the same budget and RFM/back-off
  // blackouts stall it entirely.
  std::vector<Tick> bank_free(kNumBanks, 0);
  std::vector<std::int64_t> open_row(kNumBanks, -1);
  Tick bus_free = 0;
  Tick rank_act_free = 0;
  const Tick act_spacing = std::max(t.tRRD_S, t.tFAW / 4);
  Tick next_ref = t.tREFI;

  SystemResult result;
  result.cores.resize(num_cores);

  const std::uint64_t total_requests =
      static_cast<std::uint64_t>(config.requests_per_core) * num_cores;
  if (config.record_latencies) {
    result.latencies.reserve(total_requests);
  }

  // Each core exposes one head-of-line request, streams[c][issued[c]];
  // the scheduler picks among the heads.
  while (result.total_requests < total_requests) {
    // Pick a head per the configured policy.
    std::size_t core = num_cores;
    if (config.scheduler == Scheduler::kInOrder) {
      Tick best = std::numeric_limits<Tick>::max();
      for (std::size_t c = 0; c < num_cores; ++c) {
        if (issued[c] >= config.requests_per_core) {
          continue;
        }
        if (next_issue[c] < best) {
          best = next_issue[c];
          core = c;
        }
      }
    } else {
      // FR-FCFS: earliest possible service start wins; among ties,
      // row-buffer hits beat misses, then the older request wins.
      Tick best_start = std::numeric_limits<Tick>::max();
      bool best_hit = false;
      Tick best_arrival = std::numeric_limits<Tick>::max();
      for (std::size_t c = 0; c < num_cores; ++c) {
        if (issued[c] >= config.requests_per_core) {
          continue;
        }
        const Request& candidate = streams[c][issued[c]];
        const Tick start_c =
            std::max(next_issue[c], bank_free[candidate.bank]);
        const bool hit_c =
            open_row[candidate.bank] ==
            static_cast<std::int64_t>(candidate.row);
        const bool better =
            start_c < best_start ||
            (start_c == best_start &&
             ((hit_c && !best_hit) ||
              (hit_c == best_hit && next_issue[c] < best_arrival)));
        if (better) {
          best_start = start_c;
          best_hit = hit_c;
          best_arrival = next_issue[c];
          core = c;
        }
      }
    }
    VRD_ASSERT(core < num_cores);
    const Tick issue_time = next_issue[core];
    const Request& request = streams[core][issued[core]];

    // Refresh blackouts that have come due.
    if (config.refresh_enabled) {
      while (next_ref <=
             std::max(issue_time, bank_free[request.bank])) {
        for (Tick& free_at : bank_free) {
          free_at = std::max(free_at, next_ref) + t.tRFC;
        }
        next_ref += t.tREFI;
      }
    }

    const Tick start = std::max(issue_time, bank_free[request.bank]);
    const bool hit =
        open_row[request.bank] ==
        static_cast<std::int64_t>(request.row);
    Tick access_latency = 0;
    Tick bank_busy = 0;
    if (hit) {
      ++result.row_hits;
      access_latency = (request.is_write ? t.tCWL : t.tCL);
      bank_busy = t.tCCD_L;
    } else {
      // Closed-row or conflict: PRE + ACT + CAS. The activation feeds
      // the mitigation engine, whose preventive actions keep the bank
      // busy, consume rank activation budget, or stall the rank.
      ++result.activations;
      const Tick act_at = std::max(start, rank_act_free);
      const Penalty penalty =
          tracker.OnActivate(request.bank, request.row);
      const Tick act_wait = act_at - start;
      access_latency = act_wait + t.tRP + t.tRCD + penalty.bank_busy +
                       (request.is_write ? t.tCWL : t.tCL);
      bank_busy =
          act_wait + t.tRP + t.tRCD + penalty.bank_busy + t.tCCD_L;
      rank_act_free =
          act_at +
          static_cast<Tick>(1 + penalty.extra_activations) *
              act_spacing +
          penalty.rank_busy;
      if (penalty.rank_busy > 0) {
        // A rank-wide blackout stalls every bank.
        for (Tick& free_at : bank_free) {
          free_at = std::max(free_at, act_at + penalty.rank_busy);
        }
      }
      open_row[request.bank] = static_cast<std::int64_t>(request.row);
    }

    // Shared data bus: the burst occupies tBL exclusively.
    Tick burst_start = start + access_latency;
    burst_start = std::max(burst_start, bus_free);
    const Tick completion = burst_start + t.tBL;
    bus_free = completion;
    bank_free[request.bank] =
        std::max(start + bank_busy, completion);

    result.total_latency += completion - issue_time;
    ++result.total_requests;
    if (config.record_latencies) {
      result.latencies.push_back(completion - issue_time);
    }

    // Core pacing: the (k+1)th request waits for think time and for
    // the (k+1-MLP)th completion.
    const std::uint64_t k = issued[core];
    completion_window[core][k % kMlp] = completion;
    ++issued[core];
    Tick pace = issue_time + think[core];
    if (issued[core] >= kMlp) {
      // The (k+1-MLP)th completion gates the next issue.
      pace = std::max(
          pace, completion_window[core][(issued[core] - kMlp) % kMlp]);
    }
    next_issue[core] = pace;
    core_finish[core] = std::max(core_finish[core], completion);
  }

  result.preventive_actions = tracker.preventive_actions();
  for (std::size_t c = 0; c < num_cores; ++c) {
    CoreStats& stats = result.cores[c];
    stats.requests = issued[c];
    stats.finish_time = core_finish[c];
    stats.instructions = static_cast<double>(issued[c]) *
                         (1000.0 / mix.cores[c].mpki);
    result.makespan = std::max(result.makespan, core_finish[c]);
  }
  return result;
}

}  // namespace

double SystemResult::LatencyPercentileNs(double p) const {
  VRD_FATAL_IF(latencies.empty(),
               "no latencies recorded (set SystemConfig::record_latencies)");
  VRD_FATAL_IF(p < 0.0 || p > 100.0, "percentile out of range");
  std::vector<Tick> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const double rank =
      p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(rank);
  return units::ToNs(sorted[idx]);
}

double NormalizedPerformance(const SystemResult& mitigated,
                             const SystemResult& baseline) {
  VRD_FATAL_IF(mitigated.cores.size() != baseline.cores.size(),
               "mismatched core counts");
  VRD_FATAL_IF(mitigated.cores.empty(), "no cores");
  double sum = 0.0;
  for (std::size_t c = 0; c < mitigated.cores.size(); ++c) {
    const double base = baseline.cores[c].Throughput();
    VRD_FATAL_IF(base <= 0.0, "baseline core did no work");
    sum += mitigated.cores[c].Throughput() / base;
  }
  return sum / static_cast<double>(mitigated.cores.size());
}

}  // namespace vrddram::memsim
