#include "core/rdt_profiler.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/faultinject.h"

namespace vrddram::core {

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
    : device_(&device), host_(device), config_(config) {
  VRD_FATAL_IF(config_.sweep_lo_frac <= 0.0 ||
                   config_.sweep_hi_frac <= config_.sweep_lo_frac,
               "invalid sweep bounds");
  VRD_FATAL_IF(config_.sweep_step_frac <= 0.0, "invalid sweep step");
  VRD_FATAL_IF(!device.org().ValidBank(config_.bank), "bank out of range");
  engine_ = dynamic_cast<vrd::TrapFaultEngine*>(&device.model());
  VRD_FATAL_IF(config_.mode == SweepMode::kAnalytic && engine_ == nullptr,
               "analytic sweeps require a TrapFaultEngine device model");
}

Tick RdtProfiler::EffectiveTOn() const {
  return config_.t_on > 0 ? config_.t_on : device_->timing().tRAS;
}

RdtProfiler::Grid RdtProfiler::GridFor(std::uint64_t rdt_guess) const {
  VRD_FATAL_IF(rdt_guess == 0, "RDT guess must be positive");
  Grid grid;
  grid.lo = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(rdt_guess) * config_.sweep_lo_frac));
  grid.hi = std::max<std::uint64_t>(
      grid.lo + 1, static_cast<std::uint64_t>(
                       static_cast<double>(rdt_guess) *
                       config_.sweep_hi_frac));
  grid.step = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(rdt_guess) * config_.sweep_step_frac));
  return grid;
}

Tick RdtProfiler::IterationTime(std::uint64_t hc) const {
  const dram::TimingParams& t = device_->timing();
  const auto bursts =
      static_cast<Tick>(device_->org().row_bytes / 64);

  // One row initialization: ACT, full write train, PRE.
  const Tick row_init = t.tRCD + (bursts - 1) * t.tCCD_L_WR + t.tCWL +
                        t.tBL + t.tWR + t.tRP;
  const Tick init = 17 * std::max(row_init, t.tRAS + t.tRP);
  // Double-sided hammering: hc activations per aggressor.
  const Tick hammer =
      static_cast<Tick>(2 * hc) * (EffectiveTOn() + t.tRP);
  // Victim readback: ACT, full read train, PRE.
  const Tick read = t.tRCD + (bursts - 1) * t.tCCD_L + t.tCL + t.tBL +
                    t.tRTP + t.tRP;
  return init + hammer + read;
}

void RdtProfiler::MakeSeriesContext(dram::RowAddr victim,
                                    std::uint64_t rdt_guess,
                                    SeriesContext& ctx) {
  ctx.grid = GridFor(rdt_guess);
  ctx.t_on = EffectiveTOn();
  if (config_.mode == SweepMode::kAnalytic) {
    ctx.phys = device_->mapper().ToPhysical(victim);
    ctx.fixed_per_step = IterationTime(0);
    ctx.per_hammer = 2 * (ctx.t_on + device_->timing().tRP);
    // In-place rebuild: the engine clears and refills the context's
    // vectors without releasing their capacity.
    engine_->MakeMeasureContext(
        config_.bank, ctx.phys, dram::VictimByte(config_.pattern),
        dram::AggressorByte(config_.pattern), ctx.t_on,
        device_->temperature(), device_->encoding(), device_->Now(),
        ctx.measure);
  }
}

std::int64_t RdtProfiler::MeasureOnceSwept(dram::RowAddr victim,
                                           const SeriesContext& ctx) {
  const Grid& grid = ctx.grid;
  for (std::uint64_t hc = grid.lo; hc < grid.hi; hc += grid.step) {
    const std::vector<dram::BitFlip> flips =
        (config_.mode == SweepMode::kCommandLevel)
            ? host_.TestOnceExact(config_.bank, victim, config_.pattern,
                                  hc, ctx.t_on)
            : host_.TestOnce(config_.bank, victim, config_.pattern, hc,
                             ctx.t_on);
    if (!flips.empty()) {
      return static_cast<std::int64_t>(hc);
    }
  }
  return kNoFlip;
}

std::int64_t RdtProfiler::MeasureOnceAnalytic(SeriesContext& ctx) {
  VRD_ASSERT(engine_ != nullptr);
  const Grid& grid = ctx.grid;
  const double rdt_true =
      engine_->MinFlipHammerCount(ctx.measure, device_->Now());

  // First grid value whose hammer count reaches the flipping count.
  std::int64_t observed = kNoFlip;
  if (rdt_true >= 0.0) {
    if (rdt_true <= static_cast<double>(grid.lo)) {
      observed = static_cast<std::int64_t>(grid.lo);
    } else {
      const double offset = rdt_true - static_cast<double>(grid.lo);
      const auto steps = static_cast<std::uint64_t>(
          std::ceil(offset / static_cast<double>(grid.step)));
      const std::uint64_t value = grid.lo + steps * grid.step;
      if (value < grid.hi) {
        observed = static_cast<std::int64_t>(value);
      }
    }
  }

  // Advance device time by the duration the real sweep would take, so
  // trap dynamics keep their physical pace. The per-iteration time is
  // affine in the hammer count, so the sum over the executed grid
  // prefix has a closed form.
  const std::uint64_t last_hc =
      (observed != kNoFlip) ? static_cast<std::uint64_t>(observed)
                            : grid.lo + ((grid.hi - 1 - grid.lo) /
                                         grid.step) * grid.step;
  const std::uint64_t steps = (last_hc - grid.lo) / grid.step + 1;
  // Sum of the arithmetic hammer-count sequence lo, lo+step, ..., last.
  const auto hammer_sum = static_cast<Tick>(
      steps * (grid.lo + last_hc) / 2);
  const Tick duration =
      static_cast<Tick>(steps) * ctx.fixed_per_step +
      ctx.per_hammer * hammer_sum;
  device_->Sleep(duration);
  return observed;
}

std::int64_t RdtProfiler::MeasureOnceWith(SeriesContext& ctx,
                                          dram::RowAddr victim) {
  const std::int64_t rdt = (config_.mode == SweepMode::kAnalytic)
                               ? MeasureOnceAnalytic(ctx)
                               : MeasureOnceSwept(victim, ctx);
  if (fi::ShouldFire("core.profiler.noflip")) {
    // A spuriously clean measurement: the sweep ran (device time has
    // advanced as usual) but the readout missed the flip.
    return kNoFlip;
  }
  return rdt;
}

std::int64_t RdtProfiler::MeasureOnce(dram::RowAddr victim,
                                      std::uint64_t rdt_guess) {
  MakeSeriesContext(victim, rdt_guess, series_scratch_);
  return MeasureOnceWith(series_scratch_, victim);
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
    out.push_back(MeasureOnceWith(series_scratch_, victim));
  }
}

std::optional<std::uint64_t> RdtProfiler::GuessRdt(dram::RowAddr victim) {
  // Seed: rough scale of the row's RDT.
  std::uint64_t rough = 0;
  if (config_.mode == SweepMode::kAnalytic) {
    const dram::PhysicalRow phys = device_->mapper().ToPhysical(victim);
    const double rdt_true = engine_->MinFlipHammerCount(
        config_.bank, phys, dram::VictimByte(config_.pattern),
        dram::AggressorByte(config_.pattern), EffectiveTOn(),
        device_->temperature(), device_->encoding(), device_->Now());
    device_->Sleep(10 * units::kMillisecond);
    if (rdt_true < 1.0 ||
        rdt_true > static_cast<double>(config_.guess_cap)) {
      return std::nullopt;
    }
    rough = static_cast<std::uint64_t>(rdt_true);
  } else {
    std::uint64_t hc = 512;
    while (hc < config_.guess_cap) {
      const auto flips = host_.TestOnce(config_.bank, victim,
                                        config_.pattern, hc,
                                        EffectiveTOn());
      if (!flips.empty()) {
        rough = hc;
        break;
      }
      hc = hc + hc / 2;
    }
    if (rough == 0) {
      return std::nullopt;
    }
  }

  // Alg. 1: the guess is the mean RDT across `guess_measurements`
  // repeated measurements.
  double sum = 0.0;
  std::size_t hits = 0;
  MakeSeriesContext(victim, rough, series_scratch_);
  for (std::size_t i = 0; i < config_.guess_measurements; ++i) {
    const std::int64_t rdt = MeasureOnceWith(series_scratch_, victim);
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
    if (guess && *guess < config_.find_victim_threshold) {
      return Victim{row, *guess};
    }
  }
  return std::nullopt;
}

}  // namespace vrddram::core
