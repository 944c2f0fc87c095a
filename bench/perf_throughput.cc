/**
 * @file
 * Throughput microbenchmarks (google-benchmark): how fast the
 * simulation substrate itself runs - analytic RDT measurements, series
 * analysis, raw fault-engine queries, campaign thread scaling,
 * Poisson draws, and memory-system events.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/campaign.h"
#include "core/rdt_profiler.h"
#include "core/series_analysis.h"
#include "memsim/system.h"
#include "vrd/chip_catalog.h"
#include "vrd/trap_engine.h"

namespace {

using namespace vrddram;

struct ProfilerFixture {
  ProfilerFixture() {
    device = vrd::BuildDevice("M1");
    profiler = std::make_unique<core::RdtProfiler>(*device,
                                                   core::ProfilerConfig{});
    const auto found = profiler->FindVictim(1, 4000);
    VRD_FATAL_IF(!found,
                 "perf fixture: no victim row below the find_victim "
                 "threshold in rows [1, 4000) of device M1");
    victim = found->row;
    guess = found->rdt_guess;
  }
  std::unique_ptr<dram::Device> device;
  std::unique_ptr<core::RdtProfiler> profiler;
  dram::RowAddr victim = 0;
  std::uint64_t guess = 0;
};

// The rows one fig07 campaign shard measures on M1: three per bank
// region, the lowest mean RDT of 192 scanned rows each, with their
// GuessRdt. Their mix of trap counts and distinct sweep durations is
// what the kernel and its occupancy memo see in a campaign.
struct CampaignRowsFixture {
  CampaignRowsFixture() {
    device = vrd::BuildDevice("M1");
    auto& engine = dynamic_cast<vrd::TrapFaultEngine&>(device->model());
    profiler = std::make_unique<core::RdtProfiler>(*device,
                                                   core::ProfilerConfig{});
    for (const dram::RowAddr row : core::SelectVulnerableRows(
             *device, engine, /*bank=*/0, /*per_region=*/3,
             /*scan_per_region=*/192, dram::DataPattern::kCheckered0,
             device->timing().tRAS)) {
      if (const auto guess = profiler->GuessRdt(row)) {
        rows.push_back({row, *guess});
        traps += engine.RowStateOf(0, device->mapper().ToPhysical(row))
                     .traps.size();
      }
    }
    VRD_FATAL_IF(rows.empty(),
                 "perf fixture: no campaign row of device M1 flips");
  }
  std::unique_ptr<dram::Device> device;
  std::unique_ptr<core::RdtProfiler> profiler;
  std::vector<core::RdtProfiler::Victim> rows;
  std::size_t traps = 0;  ///< summed over `rows`
};

// The path every campaign shard runs: one 1000-measurement analytic
// series per iteration into a hoisted buffer, cycling through the
// campaign rows; items are measurements. `traps` and
// `distinct_durations` (distinct series values, each one sweep
// duration) are means over the rows' series.
void BM_MeasurementAnalytic(benchmark::State& state) {
  constexpr std::size_t kSeriesLength = 1000;
  CampaignRowsFixture fx;
  std::vector<std::int64_t> series;
  std::size_t next = 0;
  for (auto _ : state) {
    const core::RdtProfiler::Victim& row = fx.rows[next];
    next = next + 1 == fx.rows.size() ? 0 : next + 1;
    fx.profiler->MeasureSeries(row.row, row.rdt_guess, kSeriesLength,
                               series);
    benchmark::DoNotOptimize(series.data());
    benchmark::ClobberMemory();
  }
  // One more series per row, untimed, for the duration count.
  std::size_t distinct = 0;
  for (const core::RdtProfiler::Victim& row : fx.rows) {
    fx.profiler->MeasureSeries(row.row, row.rdt_guess, kSeriesLength,
                               series);
    std::sort(series.begin(), series.end());
    distinct += static_cast<std::size_t>(
        std::unique(series.begin(), series.end()) - series.begin());
  }
  const auto row_count = static_cast<double>(fx.rows.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSeriesLength));
  state.counters["traps"] = static_cast<double>(fx.traps) / row_count;
  state.counters["distinct_durations"] =
      static_cast<double>(distinct) / row_count;
}
BENCHMARK(BM_MeasurementAnalytic);

// The single-row experiments' per-series analysis: one deterministic
// 1000-measurement series of the fixture row, analysed with a lag-1
// ACF; items are series.
void BM_AnalyzeSeries(benchmark::State& state) {
  ProfilerFixture fx;
  const std::vector<std::int64_t> series =
      fx.profiler->MeasureSeries(fx.victim, fx.guess, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AnalyzeSeries(series, /*acf_max_lag=*/1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AnalyzeSeries);

// The shape fig01, fig03, fig04 and fig05 analyse: one 100,000-
// measurement series of the fixture row at the default 40 ACF lags;
// items are measurements.
void BM_AnalyzeSeriesPaperScale(benchmark::State& state) {
  constexpr std::size_t kSeriesLength = 100000;
  ProfilerFixture fx;
  const std::vector<std::int64_t> series =
      fx.profiler->MeasureSeries(fx.victim, fx.guess, kSeriesLength);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AnalyzeSeries(series));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSeriesLength));
}
BENCHMARK(BM_AnalyzeSeriesPaperScale);

void BM_EngineQuery(benchmark::State& state) {
  auto device = vrd::BuildDevice("M1");
  auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());
  const dram::PhysicalRow row{100};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->MinFlipHammerCount(
        0, row, 0x55, 0xAA, device->timing().tRAS, 50.0,
        device->encoding(), device->Now()));
    device->Sleep(units::kMillisecond);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineQuery);

// Thread scaling of the parallel campaign executor: a representative
// multi-device, multi-temperature campaign (8 shards) at 1..8 worker
// threads. Output is bit-identical across the arg values; only the
// wall clock changes.
void BM_CampaignThreads(benchmark::State& state) {
  core::CampaignConfig config;
  config.devices = {"M1", "S2", "H1", "H3"};
  config.temperatures = {50.0, 80.0};
  config.rows_per_device = 3;
  config.measurements = 200;
  config.scan_rows_per_region = 48;
  config.threads = static_cast<std::size_t>(state.range(0));
  std::size_t measurements = 0;
  for (auto _ : state) {
    const core::CampaignResult result = core::RunCampaign(config);
    measurements = 0;
    for (const core::SeriesRecord& record : result.records) {
      measurements += record.flips.measurements();
    }
    benchmark::DoNotOptimize(measurements);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * measurements));
  state.counters["shards"] = static_cast<double>(
      config.devices.size() * config.temperatures.size());
}
BENCHMARK(BM_CampaignThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Poisson draw throughput: row-state initialization is dominated by
// per-cell/per-trap count draws, all served by PoissonSampler.
void BM_SamplePoisson(benchmark::State& state) {
  Rng rng(0x9015);
  const vrd::PoissonSampler sampler(10.0);
  std::size_t sum = 0;
  for (auto _ : state) {
    sum += sampler(rng);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplePoisson);

void BM_MemsimRequests(benchmark::State& state) {
  const auto mixes = memsim::MakeHighMemoryIntensityMixes();
  for (auto _ : state) {
    memsim::SystemConfig config;
    config.requests_per_core = 2000;
    benchmark::DoNotOptimize(memsim::SimulateMix(mixes[0], config));
  }
  state.SetItemsProcessed(state.iterations() * 8000);
}
BENCHMARK(BM_MemsimRequests);

}  // namespace

/**
 * Custom main: unless the caller picks an output file, write the JSON
 * results to BENCH_perf.json in the working directory. That makes
 * `bench_perf_throughput` self-recording: every run leaves a
 * machine-readable snapshot that tools/bench_compare.py can diff
 * against a run of another build (see docs/API.md).
 */
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) {
      has_out = true;
    }
  }
  std::vector<char*> args(argv, argv + argc);
  static char out_flag[] = "--benchmark_out=BENCH_perf.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int our_argc = static_cast<int>(args.size());
  benchmark::Initialize(&our_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(our_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
