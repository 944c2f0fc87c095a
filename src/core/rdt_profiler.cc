#include "core/rdt_profiler.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/faultinject.h"

namespace vrddram::core {

namespace {

/// find_victim accepts rows whose guessed RDT is below this.
constexpr std::uint64_t kFindVictimThreshold = 40000;
/// Measurements averaged into RDT_guess (Alg. 1: 10).
constexpr std::size_t kGuessMeasurements = 10;
/// Rows that do not flip below this many hammers get no guess.
constexpr std::uint64_t kGuessCap = 400000;

}  // namespace

std::int64_t MinObservedRdt(std::span<const std::int64_t> series) {
  std::int64_t min_rdt = kNoFlip;
  for (const std::int64_t rdt : series) {
    if (rdt >= 0 && (min_rdt < 0 || rdt < min_rdt)) {
      min_rdt = rdt;
    }
  }
  return min_rdt;
}

RdtProfiler::RdtProfiler(dram::Device& device, ProfilerConfig config)
    : device_(&device),
      config_(config),
      engine_(dynamic_cast<vrd::TrapFaultEngine*>(&device.model())) {
  VRD_FATAL_IF(!device.org().ValidBank(config_.bank), "bank out of range");
  VRD_FATAL_IF(engine_ == nullptr,
               "RDT profiling requires a TrapFaultEngine device model");
}

Tick RdtProfiler::EffectiveTOn() const {
  return config_.t_on > 0 ? config_.t_on : device_->timing().tRAS;
}

RdtProfiler::Grid RdtProfiler::GridFor(std::uint64_t rdt_guess) {
  VRD_FATAL_IF(rdt_guess == 0, "RDT guess must be positive");
  // Alg. 1: RDT_guess/2 up to (excluding) 3*RDT_guess in steps of
  // RDT_guess/100, each at least one hammer apart.
  Grid grid;
  grid.lo = std::max<std::uint64_t>(1, rdt_guess / 2);
  grid.hi = std::max<std::uint64_t>(grid.lo + 1, 3 * rdt_guess);
  grid.step = std::max<std::uint64_t>(1, rdt_guess / 100);
  return grid;
}

Tick RdtProfiler::FixedIterationTime() const {
  const dram::TimingParams& t = device_->timing();
  const auto bursts =
      static_cast<Tick>(device_->org().row_bytes / 64);

  // One row initialization: ACT, full write train, PRE.
  const Tick row_init = t.tRCD + (bursts - 1) * t.tCCD_L_WR + t.tCWL +
                        t.tBL + t.tWR + t.tRP;
  const Tick init = 17 * std::max(row_init, t.tRAS + t.tRP);
  // Victim readback: ACT, full read train, PRE.
  const Tick read = t.tRCD + (bursts - 1) * t.tCCD_L + t.tCL + t.tBL +
                    t.tRTP + t.tRP;
  return init + read;
}

Tick RdtProfiler::SweepDuration(const SeriesContext& ctx,
                                std::uint64_t steps) {
  // The per-iteration time is affine in the hammer count, so the sum
  // over the executed grid prefix has a closed form: the arithmetic
  // hammer-count sequence lo, lo+step, ..., last.
  const Grid& grid = ctx.grid;
  const std::uint64_t last_hc = grid.lo + (steps - 1) * grid.step;
  const auto hammer_sum = static_cast<Tick>(
      steps * (grid.lo + last_hc) / 2);
  return static_cast<Tick>(steps) * ctx.fixed_per_step +
         ctx.per_hammer * hammer_sum;
}

void RdtProfiler::MakeSeriesContext(dram::RowAddr victim,
                                    std::uint64_t rdt_guess,
                                    SeriesContext& ctx) {
  ctx.grid = GridFor(rdt_guess);
  const Grid& grid = ctx.grid;
  const Tick t_on = EffectiveTOn();
  ctx.fixed_per_step = FixedIterationTime();
  // Double-sided hammering: each hammer activates both aggressors.
  ctx.per_hammer = 2 * (t_on + device_->timing().tRP);
  // The last grid index below hi; a measurement that flips at none
  // runs the whole grid.
  const std::uint64_t last_index = (grid.hi - 1 - grid.lo) / grid.step;
  ctx.last_index = static_cast<double>(last_index);
  ctx.no_flip_duration = SweepDuration(ctx, last_index + 1);
  // In-place rebuild: the engine clears and refills the context's
  // vectors without releasing their capacity.
  engine_->MakeMeasureContext(
      config_.bank, device_->mapper().ToPhysical(victim),
      dram::VictimByte(config_.pattern),
      dram::AggressorByte(config_.pattern), t_on,
      device_->temperature(), device_->encoding(), device_->Now(),
      ctx.measure);
}

std::int64_t RdtProfiler::MeasureOnceWith(SeriesContext& ctx) {
  const Grid& grid = ctx.grid;
  const double rdt_true =
      engine_->MinFlipHammerCount(ctx.measure, device_->Now());

  // First grid value whose hammer count reaches the flipping count.
  // The grid index is decided in double: a flipping count far beyond
  // the grid has an index no integer type holds.
  std::int64_t observed = kNoFlip;
  Tick duration = ctx.no_flip_duration;
  if (rdt_true >= 0.0) {
    const double lo = static_cast<double>(grid.lo);
    const double index =
        rdt_true <= lo
            ? 0.0
            : std::ceil((rdt_true - lo) / static_cast<double>(grid.step));
    if (index <= ctx.last_index) {
      const auto k = static_cast<std::uint64_t>(index);
      observed = static_cast<std::int64_t>(grid.lo + k * grid.step);
      duration = SweepDuration(ctx, k + 1);
    }
  }

  // Advance device time by the duration the real sweep would take, so
  // trap dynamics keep their physical pace.
  device_->Sleep(duration);

  if (fi::ShouldFire("core.profiler.noflip")) {
    // A spuriously clean measurement: the sweep ran (device time has
    // advanced as usual) but the readout missed the flip.
    return kNoFlip;
  }
  return observed;
}

std::vector<std::int64_t> RdtProfiler::MeasureSeries(
    dram::RowAddr victim, std::uint64_t rdt_guess, std::size_t n) {
  std::vector<std::int64_t> series;
  MeasureSeries(victim, rdt_guess, n, series);
  return series;
}

void RdtProfiler::MeasureSeries(dram::RowAddr victim,
                                std::uint64_t rdt_guess, std::size_t n,
                                std::vector<std::int64_t>& out) {
  out.clear();
  out.reserve(n);
  // The grid, row mapping, timing constants, and engine-side caches
  // depend only on (victim, rdt_guess) and the fixed test setup; the
  // scratch context is rebuilt in place with retained capacity.
  MakeSeriesContext(victim, rdt_guess, series_scratch_);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(MeasureOnceWith(series_scratch_));
  }
}

std::optional<std::uint64_t> RdtProfiler::GuessRdt(dram::RowAddr victim) {
  // Seed: rough scale of the row's RDT.
  const dram::PhysicalRow phys = device_->mapper().ToPhysical(victim);
  const double rdt_true = engine_->MinFlipHammerCount(
      config_.bank, phys, dram::VictimByte(config_.pattern),
      dram::AggressorByte(config_.pattern), EffectiveTOn(),
      device_->temperature(), device_->encoding(), device_->Now());
  device_->Sleep(10 * units::kMillisecond);
  if (rdt_true < 1.0 || rdt_true > static_cast<double>(kGuessCap)) {
    return std::nullopt;
  }
  const auto rough = static_cast<std::uint64_t>(rdt_true);

  // Alg. 1: the guess is the mean RDT across kGuessMeasurements
  // repeated measurements.
  double sum = 0.0;
  std::size_t hits = 0;
  MakeSeriesContext(victim, rough, series_scratch_);
  for (std::size_t i = 0; i < kGuessMeasurements; ++i) {
    const std::int64_t rdt = MeasureOnceWith(series_scratch_);
    if (rdt != kNoFlip) {
      sum += static_cast<double>(rdt);
      ++hits;
    }
  }
  if (hits == 0) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(sum / static_cast<double>(hits));
}

std::optional<RdtProfiler::Victim> RdtProfiler::FindVictim(
    dram::RowAddr begin, dram::RowAddr end) {
  VRD_FATAL_IF(begin >= end, "empty row range");
  const dram::RowAddr last = device_->org().LargestRowAddress();
  for (dram::RowAddr row = begin; row < end && row <= last; ++row) {
    const dram::PhysicalRow phys = device_->mapper().ToPhysical(row);
    if (phys.value == 0 || phys.value >= last) {
      continue;  // edge rows have no double-sided aggressors
    }
    const std::optional<std::uint64_t> guess = GuessRdt(row);
    if (guess && *guess < kFindVictimThreshold) {
      return Victim{row, *guess};
    }
  }
  return std::nullopt;
}

}  // namespace vrddram::core
