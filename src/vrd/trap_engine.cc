#include "vrd/trap_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/error.h"
#include "dram/cell_encoding.h"

namespace vrddram::vrd {

PoissonSampler::PoissonSampler(double lambda) {
  VRD_FATAL_IF(lambda < 0.0, "Poisson rate must be non-negative");
  // Beyond ~50 the exp(-lambda) limit underflows towards 0 and the
  // product loop degenerates into thousands of iterations per sample.
  VRD_FATAL_IF(lambda > 50.0,
               "Poisson rate " + std::to_string(lambda) +
                   " too large for Knuth sampling; check the fault "
                   "profile's weak_cells_mean and fast_trap_mean");
  limit_ = std::exp(-lambda);
}

std::size_t PoissonSampler::operator()(Rng& rng) const {
  // Knuth's product-of-uniforms method; fine for the small lambdas the
  // fault model uses (< ~10). Draw sequences are pinned by
  // PoissonSamplerTest.DrawSequencesArePinned.
  std::size_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.NextDouble();
  } while (p > limit_);
  return k - 1;
}

TrapFaultEngine::TrapFaultEngine(FaultProfile profile,
                                 std::uint64_t device_seed,
                                 dram::Organization org)
    : profile_(profile),
      device_seed_(device_seed),
      org_(org),
      weak_cell_sampler_(profile_.weak_cells_mean),
      fast_trap_sampler_(profile_.fast_trap_mean) {}

TrapFaultEngine::RowState TrapFaultEngine::BuildRowState(
    dram::BankId bank, dram::PhysicalRow row, Tick now) const {
  // Manufacturing randomness: fixed per (device, bank, row).
  Rng rng(MixSeed(device_seed_, bank, row.value, 0xfab5));
  RowState state;
  state.last_restore = now;
  state.last_sample = now;
  state.dynamics_rng =
      Rng(MixSeed(device_seed_, bank, row.value, 0xd114));

  // Row-level process variation: one factor shared by all the row's
  // weak cells, so their thresholds cluster.
  const double row_scale = rng.NextLognormal(0.0, profile_.sigma_rdt);
  const std::size_t cell_count = weak_cell_sampler_(rng);
  state.cells.reserve(cell_count);
  // Heuristic capacity: most cells carry one or two traps, so two per
  // cell absorbs nearly every row; growth beyond it stays inside this
  // construction path.
  state.traps.reserve(cell_count * 2);
  const std::uint64_t row_bits =
      static_cast<std::uint64_t>(org_.row_bytes) * 8;

  auto log_uniform = [&rng](double lo, double hi) {
    return lo * std::exp(rng.NextDouble() * std::log(hi / lo));
  };

  for (std::size_t i = 0; i < cell_count; ++i) {
    WeakCell cell;
    cell.bit_index = static_cast<std::uint32_t>(rng.NextBelow(row_bits));
    cell.threshold = profile_.median_rdt * row_scale *
                     rng.NextLognormal(0.0, profile_.sigma_rdt_cell);
    // Products are computed into named temporaries before the adds
    // throughout this file: `a + b * c` written inline is
    // FMA-contractable, and one fused rounding would make the reports
    // depend on the compiler and target (DESIGN.md §6).
    const double alpha_span = 0.4 * rng.NextDouble();
    cell.alpha_above = 0.3 + alpha_span;
    cell.temp_beta =
        rng.NextGaussian(profile_.temp_beta_mean, profile_.temp_beta_sigma);
    // Per-cell noise magnitude: a minority of cells are quiet enough
    // that quantization hides their variation under some parameter
    // combinations (the paper's 2.9% of rows, Finding 6).
    cell.noise_sigma =
        profile_.measurement_noise_sigma *
        std::min(1.5, rng.NextLognormal(0.0, 1.0));
    for (double& j : cell.aggr_jitter) {
      j = rng.NextLognormal(0.0, profile_.pattern_jitter_sigma);
    }
    for (double& j : cell.victim_jitter) {
      j = rng.NextLognormal(0.0, profile_.pattern_jitter_sigma);
    }

    cell.trap_begin = static_cast<std::uint32_t>(state.traps.size());
    const std::size_t fast_traps = fast_trap_sampler_(rng);
    for (std::size_t t = 0; t < fast_traps; ++t) {
      Trap trap;
      const double occ_span = 0.70 * rng.NextDouble();
      trap.occupancy = 0.15 + occ_span;
      trap.rate_hz =
          log_uniform(profile_.fast_rate_lo_hz, profile_.fast_rate_hi_hz);
      trap.weight = profile_.fast_weight_med * rng.NextLognormal(0.0, 0.25);
      trap.occupied = rng.NextBernoulli(trap.occupancy);
      state.traps.push_back(trap);
    }
    if (rng.NextBernoulli(profile_.rare_trap_prob)) {
      Trap trap;
      const double exp_span =
          (profile_.rare_occupancy_exp_hi - profile_.rare_occupancy_exp_lo) *
          rng.NextDouble();
      const double exponent = profile_.rare_occupancy_exp_lo + exp_span;
      trap.occupancy = std::pow(10.0, -exponent);
      trap.rate_hz =
          log_uniform(profile_.rare_rate_lo_hz, profile_.rare_rate_hi_hz);
      trap.weight = profile_.rare_weight_med * rng.NextLognormal(0.0, 0.4);
      trap.occupied = rng.NextBernoulli(trap.occupancy);
      state.traps.push_back(trap);
    }
    if (rng.NextBernoulli(profile_.heavy_trap_prob)) {
      Trap trap;
      const double occ_span = 0.40 * rng.NextDouble();
      trap.occupancy = 0.10 + occ_span;
      trap.rate_hz = log_uniform(10.0, 100.0);
      trap.weight = profile_.heavy_weight_med * rng.NextLognormal(0.0, 0.4);
      trap.occupied = rng.NextBernoulli(trap.occupancy);
      state.traps.push_back(trap);
    }
    if (rng.NextBernoulli(profile_.bimodal_trap_prob)) {
      Trap trap;
      const double occ_span = 0.30 * rng.NextDouble();
      trap.occupancy = 0.25 + occ_span;
      // Fast enough to decorrelate between measurements: the paper's
      // bimodal HBM chip still shows a white-noise-like ACF.
      trap.rate_hz = log_uniform(30.0, 300.0);
      const double weight_jitter = 0.4 * rng.NextDouble();
      trap.weight = profile_.bimodal_weight * (0.8 + weight_jitter);
      trap.occupied = rng.NextBernoulli(trap.occupancy);
      state.traps.push_back(trap);
    }
    cell.trap_count =
        static_cast<std::uint32_t>(state.traps.size()) - cell.trap_begin;
    state.cells.push_back(std::move(cell));
  }
  return state;
}

TrapFaultEngine::RowState& TrapFaultEngine::MutableRowState(
    dram::BankId bank, dram::PhysicalRow row, Tick now) {
  const std::uint64_t key = Key(bank, row);
  auto it = states_.find(key);
  if (it == states_.end()) {
    it = states_.emplace(key, BuildRowState(bank, row, now)).first;
  }
  return it->second;
}

const TrapFaultEngine::RowState& TrapFaultEngine::RowStateOf(
    dram::BankId bank, dram::PhysicalRow row) {
  return MutableRowState(bank, row, 0);
}

void TrapFaultEngine::AccrueDose(
    dram::BankId bank, dram::PhysicalRow victim, bool aggressor_is_above,
    double strength, std::uint64_t count, double press,
    std::span<const std::uint8_t> aggressor_data, Tick now) {
  RowState& state = MutableRowState(bank, victim, now);
  const double base = static_cast<double>(count) * press * strength;
  for (WeakCell& cell : state.cells) {
    const double side =
        aggressor_is_above ? cell.alpha_above : (1.0 - cell.alpha_above);
    // Worst-case coupling if the aggressor content is unknown.
    bool aggr_bit_known = false;
    bool aggr_bit = false;
    const std::uint32_t byte = cell.bit_index / 8;
    if (byte < aggressor_data.size()) {
      aggr_bit_known = true;
      aggr_bit = (aggressor_data[byte] >> (cell.bit_index % 8)) & 1;
    }
    const double dose = base * side;
    if (aggr_bit_known) {
      cell.dose[aggr_bit ? 1 : 0] += dose;
    } else {
      // Split pessimistically: count it as opposite-bit coupling for
      // either victim value by crediting both slots.
      cell.dose[0] += dose;
      cell.dose[1] += dose;
    }
  }
}

void TrapFaultEngine::OnActivations(
    dram::BankId bank, dram::PhysicalRow aggressor, std::uint64_t count,
    Tick t_on, Tick now, Celsius temperature,
    std::span<const std::uint8_t> aggressor_data) {
  (void)temperature;  // applied per-cell at evaluation time
  if (count == 0) {
    return;
  }
  const double press = profile_.PressFactor(t_on);
  const auto max_row = org_.LargestRowAddress();
  const std::int64_t base = aggressor.value;

  struct Neighbour {
    std::int64_t offset;
    double strength;
  };
  const Neighbour neighbours[] = {
      {-1, 1.0},
      {+1, 1.0},
      {-2, profile_.d2_coupling},
      {+2, profile_.d2_coupling},
  };
  for (const Neighbour& nb : neighbours) {
    const std::int64_t target = base + nb.offset;
    if (target < 0 || target > max_row) {
      continue;
    }
    // The aggressor sits above the victim when its address is larger.
    const bool above = nb.offset < 0;
    AccrueDose(bank, dram::PhysicalRow{static_cast<dram::RowAddr>(target)},
               above, nb.strength, count, press, aggressor_data, now);
  }
}

void TrapFaultEngine::OnRestore(dram::BankId bank, dram::PhysicalRow row,
                                Tick now) {
  const auto it = states_.find(Key(bank, row));
  if (it == states_.end()) {
    // Restoring a row we have never tracked: nothing accumulated.
    return;
  }
  for (WeakCell& cell : it->second.cells) {
    cell.dose[0] = 0.0;
    cell.dose[1] = 0.0;
  }
  it->second.last_restore = now;
}

double TrapFaultEngine::SampleTrapBoost(RowState& state, WeakCell& cell,
                                        Tick now, Celsius temperature) {
  const double q10_scale =
      std::pow(profile_.trap_rate_q10, (temperature - 50.0) / 10.0);
  double boost = 0.0;
  const double dt =
      units::ToSeconds(std::max<Tick>(0, now - state.last_sample));
  for (Trap& trap : state.CellTraps(cell)) {
    const double rate = trap.rate_hz * q10_scale;
    const double decay = std::exp(-rate * dt);
    const double prev = trap.occupied ? 1.0 : 0.0;
    const double relax = (prev - trap.occupancy) * decay;
    const double p_occupied = trap.occupancy + relax;
    trap.occupied = state.dynamics_rng.NextBernoulli(p_occupied);
    if (trap.occupied) {
      boost += trap.weight;
    }
  }
  return boost;
}

double TrapFaultEngine::FixedPerHammerDose(
    const WeakCell& cell, dram::PhysicalRow victim,
    std::uint8_t victim_byte, std::uint8_t aggressor_byte, double press,
    Celsius temperature,
    const dram::CellEncodingLayout& encoding) const {
  const std::uint8_t bit_in_byte = cell.bit_index % 8;
  const bool victim_bit = (victim_byte >> bit_in_byte) & 1;
  const bool aggr_bit = (aggressor_byte >> bit_in_byte) & 1;

  // Per-hammer dose: one activation of each aggressor (the paper's
  // hammer-count convention counts activations per aggressor, so one
  // "hammer" = both sides once: alpha_above + alpha_below = 1). The
  // factor association order below is pinned by the kernel's golden
  // digests.
  double per_hammer =
      press * cell.aggr_jitter[aggr_bit ? 1 : 0] *
      (aggr_bit != victim_bit ? 1.0 : profile_.same_bit_factor);
  per_hammer *= cell.victim_jitter[victim_bit ? 1 : 0];
  if (!encoding.IsCharged(victim, victim_bit)) {
    per_hammer *= profile_.discharged_factor;
  }
  per_hammer *= std::exp(cell.temp_beta * (temperature - 50.0));
  return per_hammer;
}

double TrapFaultEngine::MinFlipHammerCount(
    dram::BankId bank, dram::PhysicalRow victim, std::uint8_t victim_byte,
    std::uint8_t aggressor_byte, Tick t_on, Celsius temperature,
    const dram::CellEncodingLayout& encoding, Tick now) {
  MakeMeasureContext(bank, victim, victim_byte, aggressor_byte, t_on,
                     temperature, encoding, now, one_shot_);
  return MinFlipHammerCount(one_shot_, now);
}

void TrapFaultEngine::Evaluate(const dram::VictimContext& ctx,
                               std::vector<dram::BitFlip>& out) {
  out.clear();
  const auto it = states_.find(Key(ctx.bank, ctx.row));
  if (it == states_.end()) {
    return;  // never disturbed
  }
  RowState& state = it->second;
  VRD_ASSERT(ctx.encoding != nullptr);

  for (WeakCell& cell : state.cells) {
    // Advance every trap of the cell to `now` (random telegraph noise:
    // the state at now is a Bernoulli draw conditioned on the previous
    // state and the elapsed time). The row tick moves after the loop.
    const double trap_boost =
        SampleTrapBoost(state, cell, ctx.now, ctx.temperature);

    if (cell.dose[0] == 0.0 && cell.dose[1] == 0.0) {
      continue;
    }
    const std::uint32_t byte = cell.bit_index / 8;
    const std::uint8_t bit = cell.bit_index % 8;
    if (byte >= ctx.data.size()) {
      continue;
    }
    const bool victim_bit = (ctx.data[byte] >> bit) & 1;

    // Coupling by aggressor-bit slot: opposite bits couple fully.
    const std::size_t opp = victim_bit ? 0 : 1;
    const std::size_t same = victim_bit ? 1 : 0;
    const double opp_part = cell.dose[opp] * cell.aggr_jitter[opp];
    const double same_part = cell.dose[same] * cell.aggr_jitter[same] *
                             profile_.same_bit_factor;
    double exposure = opp_part + same_part;
    exposure *= cell.victim_jitter[victim_bit ? 1 : 0];
    if (!ctx.encoding->IsCharged(ctx.row, victim_bit)) {
      exposure *= profile_.discharged_factor;
    }
    exposure *= std::exp(cell.temp_beta * (ctx.temperature - 50.0));
    exposure *= 1.0 + trap_boost;
    const double noise = std::max(
        0.05, 1.0 + state.dynamics_rng.NextGaussian(
                        0.0, cell.noise_sigma));

    if (exposure >= cell.threshold * noise) {
      // Flips are rare events; the caller owns the accumulator.
      // vrdlint: allow(kernel-allocation)
      out.push_back(dram::BitFlip{byte, bit});
    }
  }
  state.last_sample = ctx.now;
}

void MeasureContext::ClearMemo() {
  memo_slot_.fill(0);
  memo_size_ = 0;
}

const std::array<double, 2>* MeasureContext::OccupancyFor(Tick dt) {
  static_assert(kMemoCapacity < 256, "entry numbers fit memo_slot_");
  static_assert((kMemoSlots & (kMemoSlots - 1)) == 0, "power of two");
  const std::vector<TrapFaultEngine::Trap>& traps = state_->traps;
  const std::size_t stride = traps.size();
  // Fibonacci hashing: the top bits of dt times 2^64/phi spread the
  // sweep's evenly spaced durations over the slots.
  constexpr int kShift = 64 - std::countr_zero(kMemoSlots);
  const std::uint64_t mixed =
      static_cast<std::uint64_t>(dt) * 0x9E3779B97F4A7C15ULL;
  const auto home = static_cast<std::size_t>(mixed >> kShift);
  std::size_t slot = home;
  for (; memo_slot_[slot] != 0; slot = (slot + 1) & (kMemoSlots - 1)) {
    const std::size_t entry = memo_slot_[slot] - 1u;
    if (memo_dt_[entry] == dt) {
      const std::size_t offset = entry * stride;
      return memo_p_.data() + offset;
    }
  }
  // Miss: compute both probabilities for every trap of the row. A
  // paper-scale series visits a few dozen durations, so the memo
  // rarely fills; emptying it when it does bounds memory without
  // affecting values.
  if (memo_size_ == kMemoCapacity) {
    ClearMemo();
    slot = home;
  }
  const std::size_t entry = memo_size_++;
  memo_slot_[slot] = static_cast<std::uint8_t>(entry + 1);
  memo_dt_[entry] = dt;
  if (memo_p_.size() < (entry + 1) * stride) {
    // Memo growth up to its high-water mark, not steady state.
    // vrdlint: allow(kernel-allocation)
    memo_p_.resize((entry + 1) * stride);
  }
  const std::size_t offset = entry * stride;
  std::array<double, 2>* const p_occupied = memo_p_.data() + offset;
  const double seconds = units::ToSeconds(dt);
  for (std::size_t i = 0; i < stride; ++i) {
    // The two-state relaxation p = occ + (prev - occ) * decay for
    // prev = 0 and prev = 1; the operation order is pinned by the
    // kernel's golden digests.
    const double rate = traps[i].rate_hz * q10_scale_;
    const double decay = std::exp(-rate * seconds);
    const double occ = traps[i].occupancy;
    const double relax_from_empty = (0.0 - occ) * decay;
    const double relax_from_occupied = (1.0 - occ) * decay;
    p_occupied[i] = {occ + relax_from_empty, occ + relax_from_occupied};
  }
  return p_occupied;
}

MeasureContext TrapFaultEngine::MakeMeasureContext(
    dram::BankId bank, dram::PhysicalRow victim, std::uint8_t victim_byte,
    std::uint8_t aggressor_byte, Tick t_on, Celsius temperature,
    const dram::CellEncodingLayout& encoding, Tick now) {
  MeasureContext ctx;
  MakeMeasureContext(bank, victim, victim_byte, aggressor_byte, t_on,
                     temperature, encoding, now, ctx);
  return ctx;
}

void TrapFaultEngine::MakeMeasureContext(
    dram::BankId bank, dram::PhysicalRow victim, std::uint8_t victim_byte,
    std::uint8_t aggressor_byte, Tick t_on, Celsius temperature,
    const dram::CellEncodingLayout& encoding, Tick now,
    MeasureContext& ctx) {
  ctx.state_ = &MutableRowState(bank, victim, now);
  const RowState& state = *ctx.state_;
  const double press = profile_.PressFactor(t_on);
  ctx.q10_scale_ =
      std::pow(profile_.trap_rate_q10, (temperature - 50.0) / 10.0);

  // Reuse: drop contents but keep every vector's capacity (the memo's
  // value storage included), so rebuilding a hoisted context allocates
  // nothing in steady state.
  ctx.cells_.clear();
  ctx.ClearMemo();

  ctx.cells_.reserve(state.cells.size());
  for (const WeakCell& cell : state.cells) {
    MeasureContext::CellPre pre;
    pre.bit_index = cell.bit_index;
    pre.trap_begin = cell.trap_begin;
    pre.trap_count = cell.trap_count;
    // The fixed part of the per-hammer dose; the trailing 1+boost
    // factor stays per-sample.
    pre.per_hammer_fixed = FixedPerHammerDose(
        cell, victim, victim_byte, aggressor_byte, press, temperature,
        encoding);
    pre.threshold = cell.threshold;
    pre.noise_sigma = cell.noise_sigma;
    ctx.cells_.push_back(pre);
  }

  // Kernel scratch: one boost per cell, and at most one fresh polar
  // pair per two cells plus one.
  const std::size_t max_pairs = state.cells.size() / 2 + 1;
  ctx.boost_.reserve(state.cells.size());
  ctx.pairs_.reserve(max_pairs);
  ctx.polar_factors_.reserve(max_pairs);
}

template <typename Sink>
void TrapFaultEngine::ForEachFlipPoint(MeasureContext& ctx, Tick now,
                                       Sink&& sink) {
  RowState& state = *ctx.state_;
  Trap* const traps = state.traps.data();
  // Every sampling path advances all traps of a row together, so the
  // row has one sampling instant and each trap one probability pair.
  const std::array<double, 2>* const p_occupied =
      ctx.OccupancyFor(std::max<Tick>(0, now - state.last_sample));
  state.last_sample = now;
  // A local copy keeps the stream in registers; the trap-state stores
  // below would otherwise force it through memory on every draw.
  Rng rng = state.dynamics_rng;

  // Phase 1, draw: per cell, its trap Bernoullis, then its Gaussian in
  // NextGaussian's order — the normal the stream had cached on entry,
  // else the held-back second half of this call's last polar pair,
  // else a fresh pair. Only the raw stream decides the consumption, so
  // the logs can wait.
  ctx.boost_.clear();
  ctx.pairs_.clear();
  double cached = 0.0;
  const bool from_cache =
      !ctx.cells_.empty() && rng.TakeCachedGaussian(cached);
  bool half_held = from_cache;
  for (const MeasureContext::CellPre& cell : ctx.cells_) {
    double boost = 0.0;
    const std::uint32_t end = cell.trap_begin + cell.trap_count;
    for (std::uint32_t i = cell.trap_begin; i < end; ++i) {
      Trap& trap = traps[i];
      const bool occupied =
          rng.NextBernoulli(p_occupied[i][trap.occupied]);
      trap.occupied = occupied;
      // weight*1.0 and +0.0 are exact, so this equals
      // `if (occupied) boost += weight` bit for bit without its
      // data-dependent branch.
      const double hit = trap.weight * static_cast<double>(occupied);
      boost += hit;
    }
    ctx.boost_.push_back(boost);
    if (half_held) {
      half_held = false;
    } else {
      ctx.pairs_.push_back(rng.NextPolarPair());
      half_held = true;
    }
  }

  // Phase 2, transform: the pairs' log/sqrt chains are independent of
  // one another, so the CPU overlaps them.
  ctx.polar_factors_.clear();
  for (const Rng::PolarPair& pair : ctx.pairs_) {
    ctx.polar_factors_.push_back(Rng::PolarFactor(pair.s));
  }
  std::size_t k = 0;
  auto emit = [&](double gaussian) {
    const MeasureContext::CellPre& cell = ctx.cells_[k];
    const double per_hammer = cell.per_hammer_fixed * (1.0 + ctx.boost_[k]);
    // 1 + N(0, sigma), as 1.0 + (0.0 + sigma * g): adding 0.0 only
    // turns -0.0 into +0.0, which 1.0 + x cannot tell apart.
    const double jitter = cell.noise_sigma * gaussian;
    const double noise = std::max(0.05, 1.0 + jitter);
    sink(cell.bit_index, (per_hammer > 0.0)
                             ? cell.threshold * noise / per_hammer
                             : -1.0);
    ++k;
  };
  if (from_cache) {
    emit(cached);
  }
  for (std::size_t p = 0; p < ctx.pairs_.size(); ++p) {
    const double factor = ctx.polar_factors_[p];
    emit(ctx.pairs_[p].u * factor);
    const double second = ctx.pairs_[p].v * factor;
    if (k < ctx.cells_.size()) {
      emit(second);
    } else {
      rng.CacheGaussian(second);  // for the stream's next Gaussian
    }
  }
  state.dynamics_rng = rng;
}

double TrapFaultEngine::MinFlipHammerCount(MeasureContext& ctx, Tick now) {
  double min_hc = -1.0;
  ForEachFlipPoint(ctx, now, [&](std::uint32_t, double hc) {
    if (hc >= 0.0 && (min_hc < 0.0 || hc < min_hc)) {
      min_hc = hc;
    }
  });
  return min_hc;
}

void TrapFaultEngine::PerCellFlipHammerCounts(
    MeasureContext& ctx, Tick now, std::vector<CellFlipPoint>& out) {
  out.clear();
  out.reserve(ctx.cells_.size());
  ForEachFlipPoint(ctx, now, [&](std::uint32_t bit_index, double hc) {
    out.push_back(CellFlipPoint{bit_index, hc});
  });
}

}  // namespace vrddram::vrd
