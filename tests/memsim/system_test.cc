#include "memsim/system.h"

#include "common/error.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace vrddram::memsim {
namespace {

SystemConfig FastConfig() {
  SystemConfig config;
  config.requests_per_core = 4000;
  return config;
}

WorkloadMix OneMix() { return MakeHighMemoryIntensityMixes()[0]; }

/// Tiny hot sets with no row-buffer locality hammer the same rows, so
/// the counter-based mitigations trigger too.
WorkloadMix ConflictMix() {
  WorkloadMix mix;
  mix.name = "conflict";
  for (int c = 0; c < 4; ++c) {
    mix.cores.push_back(CoreProfile{"hot", 40.0, 0.0, 0.1, 2});
  }
  return mix;
}

TEST(SystemTest, BaselineRunCompletesAllRequests) {
  const SystemConfig config = FastConfig();
  const SystemResult result = SimulateMix(OneMix(), config);
  ASSERT_EQ(result.cores.size(), 4u);
  for (const CoreStats& core : result.cores) {
    EXPECT_EQ(core.requests, config.requests_per_core);
    EXPECT_GT(core.finish_time, 0);
    EXPECT_GT(core.Throughput(), 0.0);
  }
  EXPECT_GT(result.makespan, 0);
  EXPECT_GT(result.activations, 0u);
  EXPECT_GT(result.row_hits, 0u);
}

TEST(SystemTest, DeterministicForFixedSeed) {
  const SystemConfig config = FastConfig();
  const SystemResult a = SimulateMix(OneMix(), config);
  const SystemResult b = SimulateMix(OneMix(), config);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.activations, b.activations);
}

TEST(SystemTest, ResultsArePinned) {
  // Exact simulator output on mix0 at 2,000 requests per core: every
  // engine at RDT 128 in order, then Graphene under FR-FCFS. mix0 never
  // brings Graphene or PRAC to their thresholds at this length, so two
  // runs on ConflictMix pin their counting paths.
  using enum MitigationKind;
  using enum Scheduler;
  struct Pin {
    MitigationKind kind;
    Scheduler scheduler;
    bool conflict_mix;
    Tick makespan;
    std::uint64_t activations;
    std::uint64_t row_hits;
    std::uint64_t preventive_actions;
    Tick total_latency;
  };
  const Pin pins[] = {
      {kNone, kInOrder, false, 75535480, 3119, 4881, 0, 2413323334},
      {kGraphene, kInOrder, false, 75535480, 3119, 4881, 0, 2413323334},
      {kPrac, kInOrder, false, 76509118, 3119, 4881, 0, 2444447750},
      {kPara, kInOrder, false, 122054178, 3119, 4881, 835, 3899875244},
      {kMint, kInOrder, false, 135796642, 3119, 4881, 383, 4334895490},
      {kGraphene, kFrFcfs, false, 56428954, 2826, 5174, 0, 1653625684},
      {kGraphene, kInOrder, true, 92421904, 5373, 2627, 142, 2952347348},
      {kPrac, kInOrder, true, 97424452, 5373, 2627, 81, 3112734144},
  };
  for (const Pin& pin : pins) {
    SystemConfig config;
    config.requests_per_core = 2000;
    config.rdt = 128;
    config.mitigation = pin.kind;
    config.scheduler = pin.scheduler;
    const SystemResult result =
        SimulateMix(pin.conflict_mix ? ConflictMix() : OneMix(), config);
    const std::string id =
        "kind " + std::to_string(static_cast<int>(pin.kind)) +
        (pin.scheduler == kFrFcfs ? " FR-FCFS" : "") +
        (pin.conflict_mix ? " conflict" : "");
    EXPECT_EQ(result.makespan, pin.makespan) << id;
    EXPECT_EQ(result.activations, pin.activations) << id;
    EXPECT_EQ(result.row_hits, pin.row_hits) << id;
    EXPECT_EQ(result.preventive_actions, pin.preventive_actions) << id;
    EXPECT_EQ(result.total_latency, pin.total_latency) << id;
  }
}

/// Every field ResultsArePinned pins, plus the per-core stats.
void ExpectSameResult(const SystemResult& a, const SystemResult& b,
                      const std::string& id) {
  EXPECT_EQ(a.makespan, b.makespan) << id;
  EXPECT_EQ(a.activations, b.activations) << id;
  EXPECT_EQ(a.row_hits, b.row_hits) << id;
  EXPECT_EQ(a.preventive_actions, b.preventive_actions) << id;
  EXPECT_EQ(a.total_latency, b.total_latency) << id;
  EXPECT_EQ(a.total_requests, b.total_requests) << id;
  ASSERT_EQ(a.cores.size(), b.cores.size()) << id;
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    EXPECT_EQ(a.cores[c].requests, b.cores[c].requests) << id;
    EXPECT_EQ(a.cores[c].finish_time, b.cores[c].finish_time) << id;
    EXPECT_EQ(a.cores[c].instructions, b.cores[c].instructions) << id;
  }
}

TEST(SystemTest, SharedStreamsMatchFreshStreams) {
  // fig14 builds each mix's streams once and replays them in every
  // run of that mix. One MakeMixStreams per mix, shared by all five
  // kinds under both schedulers, gives what each run's own streams
  // give.
  using enum Scheduler;
  for (const bool conflict : {false, true}) {
    const WorkloadMix mix = conflict ? ConflictMix() : OneMix();
    SystemConfig config;
    config.requests_per_core = 2000;
    config.rdt = 128;
    const MixStreams streams = MakeMixStreams(mix, config);
    for (const Scheduler scheduler : {kInOrder, kFrFcfs}) {
      for (const MitigationKind kind :
           {MitigationKind::kNone, MitigationKind::kGraphene,
            MitigationKind::kPrac, MitigationKind::kPara,
            MitigationKind::kMint}) {
        config.mitigation = kind;
        config.scheduler = scheduler;
        ExpectSameResult(SimulateMix(mix, config, streams),
                         SimulateMix(mix, config),
                         "kind " + std::to_string(static_cast<int>(kind)) +
                             (scheduler == kFrFcfs ? " FR-FCFS" : "") +
                             (conflict ? " conflict" : ""));
      }
    }
  }
}

TEST(SystemTest, SimulateRunsMatchesOneSimulateMixPerConfig) {
  // fig14's shape: a baseline that records latencies, a MINT @ 64 run
  // that does, then every kind at RDTs where Graphene and PRAC act
  // (ConflictMix; mix0 at RDT 16) and where they stay silent (65536;
  // 1024 and 128 on mix0). MINT @ 128 and @ 115 share an RFM interval, as do
  // MINT @ 64 with and without latencies; the last baseline duplicates
  // the first without latencies.
  using enum MitigationKind;
  using enum Scheduler;
  for (const bool conflict : {false, true}) {
    const WorkloadMix mix = conflict ? ConflictMix() : OneMix();
    for (const Scheduler scheduler : {kInOrder, kFrFcfs}) {
      SystemConfig config;
      config.requests_per_core = 2000;
      config.scheduler = scheduler;
      const MixStreams streams = MakeMixStreams(mix, config);
      std::vector<SystemConfig> configs;
      config.record_latencies = true;
      configs.push_back(config);
      config.mitigation = kMint;
      config.rdt = 64;
      configs.push_back(config);
      config.record_latencies = false;
      for (const std::uint64_t rdt : {65536, 1024, 128, 115, 64, 16}) {
        for (const MitigationKind kind : {kGraphene, kPrac, kPara, kMint}) {
          config.mitigation = kind;
          config.rdt = rdt;
          configs.push_back(config);
        }
      }
      config.mitigation = kNone;
      configs.push_back(config);

      const std::vector<SystemResult> results =
          SimulateRuns(mix, configs, streams);
      ASSERT_EQ(results.size(), configs.size());
      // Graphene and PRAC runs that acted and that stayed silent.
      std::array<int, 2> graphene_runs{};
      std::array<int, 2> prac_runs{};
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string id =
            "entry " + std::to_string(i) + " kind " +
            std::to_string(static_cast<int>(configs[i].mitigation)) +
            " rdt " + std::to_string(configs[i].rdt) +
            (scheduler == kFrFcfs ? " FR-FCFS" : "") +
            (conflict ? " conflict" : "");
        const SystemResult want = SimulateMix(mix, configs[i], streams);
        ExpectSameResult(results[i], want, id);
        EXPECT_EQ(results[i].latencies, want.latencies) << id;
        const bool acted = want.preventive_actions > 0;
        if (configs[i].mitigation == kGraphene) {
          ++graphene_runs[acted];
        } else if (configs[i].mitigation == kPrac) {
          ++prac_runs[acted];
        }
      }
      for (const bool acted : {false, true}) {
        EXPECT_GT(graphene_runs[acted], 0) << acted << conflict;
        EXPECT_GT(prac_runs[acted], 0) << acted << conflict;
      }
    }
  }
}

TEST(SystemTest, SimulateRunsIsExactAtTheReuseBoundary) {
  // On mix0 at 2,000 requests per core the busiest row is activated
  // between 16 and 32 times, so Graphene and PRAC thresholds 8..40 step
  // across the largest per-row count: the threshold equal to it must
  // be simulated (it acts once), the ones above it reused.
  using enum MitigationKind;
  const WorkloadMix mix = OneMix();
  for (const Scheduler scheduler : {Scheduler::kInOrder, Scheduler::kFrFcfs}) {
    SystemConfig config;
    config.requests_per_core = 2000;
    config.scheduler = scheduler;
    const MixStreams streams = MakeMixStreams(mix, config);
    std::vector<SystemConfig> configs = {config};
    for (std::uint64_t threshold = 8; threshold <= 40; ++threshold) {
      config.mitigation = kGraphene;
      config.rdt = 4 * threshold;
      configs.push_back(config);
      config.mitigation = kPrac;
      config.rdt = (5 * threshold + 1) / 2;  // rdt * 2 / 5 == threshold
      configs.push_back(config);
    }
    const std::vector<SystemResult> results =
        SimulateRuns(mix, configs, streams);
    std::array<int, 2> graphene_runs{};
    std::array<int, 2> prac_runs{};
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const SystemResult want = SimulateMix(mix, configs[i], streams);
      ExpectSameResult(results[i], want,
                       "entry " + std::to_string(i) + " rdt " +
                           std::to_string(configs[i].rdt));
      const bool acted = want.preventive_actions > 0;
      if (configs[i].mitigation == kGraphene) {
        ++graphene_runs[acted];
      } else if (configs[i].mitigation == kPrac) {
        ++prac_runs[acted];
      }
    }
    for (const bool acted : {false, true}) {
      EXPECT_GT(graphene_runs[acted], 0) << acted;
      EXPECT_GT(prac_runs[acted], 0) << acted;
    }
  }
}

TEST(SystemTest, SimulateRunsRejectsConfigsOfDifferentRuns) {
  const WorkloadMix mix = OneMix();
  SystemConfig config;
  config.requests_per_core = 100;
  const MixStreams streams = MakeMixStreams(mix, config);
  SystemConfig other = config;
  other.seed = config.seed + 1;
  EXPECT_THROW(SimulateRuns(mix, {config, other}, streams), FatalError);
  other = config;
  other.scheduler = Scheduler::kFrFcfs;
  EXPECT_THROW(SimulateRuns(mix, {config, other}, streams), FatalError);
  EXPECT_TRUE(SimulateRuns(mix, {}, streams).empty());
}

TEST(SystemTest, StreamsDependOnlyOnMixSeedAndLength) {
  const WorkloadMix mix = OneMix();
  SystemConfig config;
  config.requests_per_core = 300;
  const MixStreams streams = MakeMixStreams(mix, config);
  ASSERT_EQ(streams.size(), mix.cores.size());
  for (const std::vector<Request>& stream : streams) {
    EXPECT_EQ(stream.size(), config.requests_per_core);
  }

  auto same = [](const MixStreams& a, const MixStreams& b,
                 std::size_t length) {
    for (std::size_t c = 0; c < a.size(); ++c) {
      for (std::size_t i = 0; i < length; ++i) {
        if (a[c][i].bank != b[c][i].bank || a[c][i].row != b[c][i].row ||
            a[c][i].is_write != b[c][i].is_write) {
          return false;
        }
      }
    }
    return true;
  };
  SystemConfig other = config;
  other.mitigation = MitigationKind::kMint;
  other.rdt = 64;
  other.scheduler = Scheduler::kFrFcfs;
  other.record_latencies = true;
  EXPECT_TRUE(same(streams, MakeMixStreams(mix, other), 300));
  // A longer stream extends the shorter one.
  other.requests_per_core = 500;
  EXPECT_TRUE(same(streams, MakeMixStreams(mix, other), 300));
  other.seed = config.seed + 1;
  EXPECT_FALSE(same(streams, MakeMixStreams(mix, other), 300));
}

TEST(SystemTest, StreamsMustCoverEveryCoreAndRequest) {
  const WorkloadMix mix = OneMix();
  SystemConfig config;
  config.requests_per_core = 100;
  MixStreams streams = MakeMixStreams(mix, config);
  streams.pop_back();
  EXPECT_THROW(SimulateMix(mix, config, streams), FatalError);
  streams = MakeMixStreams(mix, config);
  streams[2].pop_back();
  EXPECT_THROW(SimulateMix(mix, config, streams), FatalError);
}

TEST(SystemTest, LatencyRecordingChangesNothingElse) {
  SystemConfig config = FastConfig();
  config.mitigation = MitigationKind::kPara;
  config.rdt = 128;
  const SystemResult quiet = SimulateMix(OneMix(), config);
  EXPECT_TRUE(quiet.latencies.empty());
  EXPECT_THROW(quiet.LatencyPercentileNs(50.0), FatalError);

  config.record_latencies = true;
  const SystemResult recorded = SimulateMix(OneMix(), config);
  ExpectSameResult(quiet, recorded, "PARA @ 128");
  ASSERT_EQ(recorded.latencies.size(), recorded.total_requests);
  Tick sum = 0;
  for (const Tick latency : recorded.latencies) {
    sum += latency;
  }
  EXPECT_EQ(sum, recorded.total_latency);
}

TEST(SystemTest, SelfNormalizationIsOne) {
  const SystemResult result = SimulateMix(OneMix(), FastConfig());
  EXPECT_DOUBLE_EQ(NormalizedPerformance(result, result), 1.0);
}

TEST(SystemTest, MitigationsNeverSpeedUpTheSystem) {
  const WorkloadMix mix = ConflictMix();
  SystemConfig config = FastConfig();
  const SystemResult baseline = SimulateMix(mix, config);
  for (const MitigationKind kind :
       {MitigationKind::kGraphene, MitigationKind::kPrac,
        MitigationKind::kPara, MitigationKind::kMint}) {
    config.mitigation = kind;
    config.rdt = 64;
    const SystemResult mitigated = SimulateMix(mix, config);
    EXPECT_LE(NormalizedPerformance(mitigated, baseline), 1.001)
        << static_cast<int>(kind);
    EXPECT_GT(mitigated.preventive_actions, 0u) << static_cast<int>(kind);
  }
}

TEST(SystemTest, LowerRdtCostsMorePara) {
  SystemConfig config = FastConfig();
  const SystemResult baseline = SimulateMix(OneMix(), config);
  config.mitigation = MitigationKind::kPara;
  config.rdt = 1024;
  const double perf_high =
      NormalizedPerformance(SimulateMix(OneMix(), config), baseline);
  config.rdt = 64;
  const double perf_low =
      NormalizedPerformance(SimulateMix(OneMix(), config), baseline);
  EXPECT_LT(perf_low, perf_high);
}

TEST(SystemTest, MintOverheadLargeAtVeryLowRdt) {
  SystemConfig config = FastConfig();
  const SystemResult baseline = SimulateMix(OneMix(), config);
  config.mitigation = MitigationKind::kMint;
  config.rdt = 64;  // RDT 128 with 50% guardband
  const double perf =
      NormalizedPerformance(SimulateMix(OneMix(), config), baseline);
  EXPECT_LT(perf, 0.85);
}

TEST(SystemTest, GrapheneCheapAtHighRdt) {
  SystemConfig config = FastConfig();
  const SystemResult baseline = SimulateMix(OneMix(), config);
  config.mitigation = MitigationKind::kGraphene;
  config.rdt = 1024;
  const double perf =
      NormalizedPerformance(SimulateMix(OneMix(), config), baseline);
  EXPECT_GT(perf, 0.95);
}

TEST(SystemTest, RefreshCostsThroughput) {
  SystemConfig with_ref = FastConfig();
  SystemConfig without_ref = FastConfig();
  without_ref.refresh_enabled = false;
  const SystemResult ref = SimulateMix(OneMix(), with_ref);
  const SystemResult no_ref = SimulateMix(OneMix(), without_ref);
  EXPECT_GE(ref.makespan, no_ref.makespan);
}

TEST(SystemTest, HighLocalityMixGetsMoreRowHits) {
  WorkloadMix local;
  local.name = "local";
  WorkloadMix random;
  random.name = "random";
  for (int c = 0; c < 4; ++c) {
    local.cores.push_back(CoreProfile{"l", 30.0, 0.95, 0.2, 8});
    random.cores.push_back(CoreProfile{"r", 30.0, 0.05, 0.2, 1024});
  }
  const SystemConfig config = FastConfig();
  const SystemResult local_result = SimulateMix(local, config);
  const SystemResult random_result = SimulateMix(random, config);
  EXPECT_GT(local_result.row_hits, 2 * random_result.row_hits);
}

}  // namespace
}  // namespace vrddram::memsim

namespace vrddram::memsim {
namespace {

TEST(SchedulerTest, FrFcfsImprovesRowHitRate) {
  // A mix with moderate locality: reordering lets hits bypass misses,
  // raising the hit count and throughput.
  WorkloadMix mix;
  mix.name = "reorder";
  for (int c = 0; c < 4; ++c) {
    mix.cores.push_back(CoreProfile{"m", 40.0, 0.6, 0.2, 32, 4});
  }
  SystemConfig in_order;
  in_order.requests_per_core = 6000;
  SystemConfig fr_fcfs = in_order;
  fr_fcfs.scheduler = Scheduler::kFrFcfs;

  const SystemResult base = SimulateMix(mix, in_order);
  const SystemResult reordered = SimulateMix(mix, fr_fcfs);
  EXPECT_GE(reordered.row_hits, base.row_hits);
  // Total work identical.
  EXPECT_EQ(base.cores.size(), reordered.cores.size());
  for (const CoreStats& core : reordered.cores) {
    EXPECT_EQ(core.requests, fr_fcfs.requests_per_core);
  }
}

TEST(SchedulerTest, FrFcfsDeterministic) {
  const auto mix = MakeHighMemoryIntensityMixes()[2];
  SystemConfig config;
  config.requests_per_core = 3000;
  config.scheduler = Scheduler::kFrFcfs;
  const SystemResult a = SimulateMix(mix, config);
  const SystemResult b = SimulateMix(mix, config);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.row_hits, b.row_hits);
}

TEST(SchedulerTest, MitigationOrderingHoldsUnderFrFcfs) {
  const auto mix = MakeHighMemoryIntensityMixes()[0];
  SystemConfig config;
  config.requests_per_core = 4000;
  config.scheduler = Scheduler::kFrFcfs;
  const SystemResult baseline = SimulateMix(mix, config);
  config.rdt = 64;
  config.mitigation = MitigationKind::kPara;
  const double para =
      NormalizedPerformance(SimulateMix(mix, config), baseline);
  config.mitigation = MitigationKind::kGraphene;
  const double graphene =
      NormalizedPerformance(SimulateMix(mix, config), baseline);
  EXPECT_LT(para, graphene)
      << "PARA must cost more than Graphene at low RDT";
}

}  // namespace
}  // namespace vrddram::memsim

namespace vrddram::memsim {
namespace {

/// FastConfig with every request's latency recorded.
SystemConfig LatencyConfig() {
  SystemConfig config = FastConfig();
  config.record_latencies = true;
  return config;
}

TEST(LatencyTest, AverageLatencyTracked) {
  const SystemResult result = SimulateMix(OneMix(), LatencyConfig());
  EXPECT_EQ(result.total_requests, 4u * 4000u);
  EXPECT_GT(result.AvgLatencyNs(), units::ToNs(
      dram::MakeDdr5_8800().tCL));
  EXPECT_LT(result.AvgLatencyNs(), 10000.0);
}

TEST(LatencyTest, MitigationInflatesLatency) {
  SystemConfig config = LatencyConfig();
  const double base = SimulateMix(OneMix(), config).AvgLatencyNs();
  config.mitigation = MitigationKind::kPara;
  config.rdt = 64;
  const double mitigated =
      SimulateMix(OneMix(), config).AvgLatencyNs();
  EXPECT_GT(mitigated, base);
}

}  // namespace
}  // namespace vrddram::memsim

namespace vrddram::memsim {
namespace {

TEST(LatencyTest, PercentilesOrdered) {
  const SystemResult result = SimulateMix(OneMix(), LatencyConfig());
  const double p50 = result.LatencyPercentileNs(50.0);
  const double p99 = result.LatencyPercentileNs(99.0);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
  EXPECT_GE(result.LatencyPercentileNs(100.0), p99);
  EXPECT_THROW(result.LatencyPercentileNs(-1.0), vrddram::FatalError);
}

TEST(LatencyTest, MitigationInflatesTail) {
  SystemConfig config = LatencyConfig();
  const SystemResult base = SimulateMix(OneMix(), config);
  config.mitigation = MitigationKind::kMint;
  config.rdt = 64;
  const SystemResult worst = SimulateMix(OneMix(), config);
  EXPECT_GT(worst.LatencyPercentileNs(99.0),
            base.LatencyPercentileNs(99.0));
}

}  // namespace
}  // namespace vrddram::memsim
