// The measurement kernel (DESIGN.md §9): its outputs are pinned by
// golden digests across the catalog, trap relaxation must follow the
// Q10 temperature law, and PoissonSampler must reject rates its Knuth
// loop cannot handle.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "dram/cell_encoding.h"
#include "vrd/chip_catalog.h"
#include "vrd/trap_engine.h"

namespace vrddram::vrd {
namespace {

dram::Organization SmallOrg() {
  dram::Organization org;
  org.num_banks = 1;
  org.rows_per_bank = 1024;
  org.row_bytes = 1024;
  return org;
}

TEST(PoissonSamplerTest, RejectsDegenerateRates) {
  Rng rng(1);
  // exp(-lambda) underflows the Knuth loop's acceptance product well
  // before DBL_MIN; the engine caps supported rates at 50.
  EXPECT_THROW(PoissonSampler(50.1), FatalError);
  EXPECT_THROW(PoissonSampler(1e6), FatalError);
  EXPECT_THROW(PoissonSampler(-0.5), FatalError);
  EXPECT_NO_THROW(PoissonSampler(50.0)(rng));
  EXPECT_NO_THROW(PoissonSampler(0.0)(rng));
}

/**
 * Draw sequences are pinned: row manufacturing (weak-cell and trap
 * counts) consumes these exact draws, so any change to the sampler
 * that shifted a single value would silently rebuild every simulated
 * chip. Golden values span the profile regimes: sparse (0.1), typical
 * (10), and just under the Knuth cap (49.9).
 */
TEST(PoissonSamplerTest, DrawSequencesArePinned) {
  const struct {
    double lambda;
    std::size_t want[12];
  } cases[] = {
      {0.1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0}},
      {10.0, {10, 7, 8, 7, 15, 13, 10, 10, 7, 16, 9, 8}},
      {49.9, {49, 56, 62, 52, 37, 46, 51, 37, 51, 46, 47, 52}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.lambda);
    Rng rng(MixSeed(0x90, 0x15));
    const PoissonSampler sampler(c.lambda);
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_EQ(sampler(rng), c.want[i]) << "draw " << i;
    }
  }
}

/**
 * Occupancy relaxation toward the steady state follows the Q10 law.
 *
 * For a single two-state trap sampled on a fixed grid dt, the chain
 *   p = occ + (prev - occ) * exp(-rate * q10^((T-50)/10) * dt)
 * has stationary occupancy `occ` and a per-step state-change
 * probability of 2*occ*(1-occ)*(1 - decay(T)). With measurement noise
 * off, every state change moves the analytic threshold, so the
 * observed change fraction measures the relaxation rate directly -
 * at both temperatures it must match the closed form built from the
 * trap's own parameters.
 */
TEST(TrapTemperatureScalingTest, RelaxationMatchesQ10ClosedForm) {
  FaultProfile profile;
  profile.median_rdt = 10000.0;
  profile.weak_cells_mean = 4.0;
  profile.fast_trap_mean = 1.0;
  profile.rare_trap_prob = 0.0;
  profile.heavy_trap_prob = 0.0;
  profile.measurement_noise_sigma = 0.0;
  profile.fast_rate_lo_hz = 5.0;
  profile.fast_rate_hi_hz = 10.0;
  profile.trap_rate_q10 = 2.0;
  profile.t_ras = 32 * units::kNanosecond;

  const Tick dt = 20 * units::kMillisecond;
  const int n = 6000;

  auto observed_change_fraction = [&](Celsius temp, double* predicted) {
    TrapFaultEngine engine(profile, 3, SmallOrg());
    const dram::CellEncodingLayout encoding(1, 0.0);
    // A row whose one weak cell owns exactly one trap, so the
    // threshold is a two-valued function of that trap's state.
    dram::PhysicalRow row{0};
    const TrapFaultEngine::Trap* trap = nullptr;
    for (dram::RowAddr r = 1; r < 1000; ++r) {
      const auto& state = engine.RowStateOf(0, dram::PhysicalRow{r});
      if (state.cells.size() == 1 && state.cells[0].trap_count == 1) {
        row = dram::PhysicalRow{r};
        trap = &state.traps[state.cells[0].trap_begin];
        break;
      }
    }
    if (trap == nullptr) {
      ADD_FAILURE() << "no single-trap row below 1000";
      return 0.0;
    }
    const double q10_scale =
        std::pow(profile.trap_rate_q10, (temp - 50.0) / 10.0);
    const double decay =
        std::exp(-trap->rate_hz * q10_scale * units::ToSeconds(dt));
    *predicted = 2.0 * trap->occupancy * (1.0 - trap->occupancy) *
                 (1.0 - decay);

    double prev = -1.0;
    int changes = 0;
    for (int i = 0; i < n; ++i) {
      const double s = engine.MinFlipHammerCount(
          0, row, 0xFF, 0x00, profile.t_ras, temp, encoding,
          static_cast<Tick>(i) * dt);
      if (prev >= 0.0 && s != prev) {
        ++changes;
      }
      prev = s;
    }
    return static_cast<double>(changes) / n;
  };

  double predicted_cold = 0.0;
  double predicted_hot = 0.0;
  const double cold = observed_change_fraction(50.0, &predicted_cold);
  const double hot = observed_change_fraction(80.0, &predicted_hot);

  EXPECT_NEAR(cold, predicted_cold, 0.2 * predicted_cold + 0.01);
  EXPECT_NEAR(hot, predicted_hot, 0.2 * predicted_hot + 0.01);
  // Q10 = 2 over 30 C octuples the rate, so the hot chain relaxes
  // measurably faster.
  EXPECT_GT(predicted_hot, predicted_cold);
  EXPECT_GT(hot, cold);
}

/// FNV-1a over the bit patterns of the kernel's outputs.
class OutputDigest {
 public:
  void Add(std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * Pins the measurement kernel (DESIGN.md §9) on every tested chip of
 * the catalog (all DDR4 modules and HBM2 chips): per-cell flip points,
 * minimum flip counts, and — through the values that follow — the
 * dynamics-RNG consumption, hashed bit for bit. The per-call and
 * context forms alternate on one engine, so both must drive the same
 * kernel in the same trap history. Any change to a digest changes
 * simulated measurements, and with them the reports.
 */
TEST(MeasureContextTest, KernelOutputsMatchGoldenDigests) {
  const std::map<std::string, std::uint64_t> golden = {
      {"H0", 0x2baad278e91c6e0aULL},
      {"H1", 0xfd8882acdcd85dbaULL},
      {"H2", 0x034df10bd2f5902fULL},
      {"H3", 0x5ef862d225e43e3dULL},
      {"H4", 0x88d847af98ceeb17ULL},
      {"H5", 0xa3b18b1b2e184ce4ULL},
      {"H6", 0xca5846c218e5a127ULL},
      {"M0", 0xc9f44e25035ef905ULL},
      {"M1", 0x9fb170c0b59ceb38ULL},
      {"M2", 0xe7fdcc3b7fd7af09ULL},
      {"M3", 0x2666cf87ed0598c3ULL},
      {"M4", 0xd41b6e701917dc60ULL},
      {"M5", 0x4e12821c3c037be1ULL},
      {"M6", 0xf55a856900913209ULL},
      {"S0", 0x26c4b1b35b32bc9cULL},
      {"S1", 0x7da8fe38da68ecceULL},
      {"S2", 0xdd8ca91809d96c41ULL},
      {"S3", 0x2cb9c3382cdee51aULL},
      {"S4", 0x17f67e3648ebf572ULL},
      {"S5", 0xb4285257cdb5d2ecULL},
      {"S6", 0x639379af882ca447ULL},
      {"Chip0", 0xaceec6435611ac3fULL},
      {"Chip1", 0x6251c43262cda94bULL},
      {"Chip2", 0x58a330f6d755e3f1ULL},
      {"Chip3", 0x5db581adc6026ae7ULL},
  };
  for (const std::string& name : AllDeviceNames()) {
    SCOPED_TRACE(name);
    const TestedChip chip = MakeTestedChip(name);
    TrapFaultEngine engine(chip.fault, chip.device.seed, chip.device.org);
    const dram::CellEncodingLayout encoding(chip.device.seed,
                                            chip.device.anti_cell_fraction);
    const Tick t_on = chip.device.timing.tRAS;
    const Celsius temp = 65.0;

    // First row with at least one weak cell.
    dram::PhysicalRow row{0};
    for (dram::RowAddr r = 1; r < 4000; ++r) {
      if (!engine.RowStateOf(0, dram::PhysicalRow{r}).cells.empty()) {
        row = dram::PhysicalRow{r};
        break;
      }
    }
    ASSERT_NE(row.value, 0u);

    MeasureContext ctx =
        engine.MakeMeasureContext(0, row, 0x55, 0xAA, t_on, temp, encoding, 0);
    EXPECT_EQ(ctx.cell_count(), engine.RowStateOf(0, row).cells.size());

    // Irregular tick grid: revisits a handful of deltas (exercising
    // the decay memo) and includes fresh ones (exercising misses).
    const Tick deltas[] = {20 * units::kMillisecond,
                           20 * units::kMillisecond,
                           7 * units::kMillisecond,
                           1 * units::kSecond,
                           20 * units::kMillisecond,
                           333 * units::kMicrosecond};
    OutputDigest digest;
    Tick now = 0;
    std::vector<TrapFaultEngine::CellFlipPoint> points;
    for (int i = 0; i < 240; ++i) {
      now += deltas[i % 6];
      const bool per_call = i % 2 == 0;
      if (i % 3 == 2) {
        if (per_call) {
          MeasureContext fresh = engine.MakeMeasureContext(
              0, row, 0x55, 0xAA, t_on, temp, encoding, now);
          engine.PerCellFlipHammerCounts(fresh, now, points);
        } else {
          engine.PerCellFlipHammerCounts(ctx, now, points);
        }
        ASSERT_EQ(points.size(), ctx.cell_count());
        for (const TrapFaultEngine::CellFlipPoint& point : points) {
          digest.Add(std::uint64_t{point.bit_index});
          digest.Add(point.hammer_count);
        }
      } else {
        digest.Add(per_call ? engine.MinFlipHammerCount(
                                  0, row, 0x55, 0xAA, t_on, temp, encoding,
                                  now)
                            : engine.MinFlipHammerCount(ctx, now));
      }
    }
    const auto want = golden.find(name);
    EXPECT_TRUE(want != golden.end() && want->second == digest.value())
        << "measured {\"" << name << "\", 0x" << std::hex << digest.value()
        << "ULL}";
  }
}

/**
 * The command path (Evaluate after real activations) and the analytic
 * kernel advance the same traps of one row on one clock: each samples
 * every trap at its own `now`, and the next sample of either path
 * relaxes from that instant. Interleaving the two on one row and
 * hashing the flips and flip points pins that shared sample tick; the
 * golden-digest test above never mixes the paths.
 */
TEST(MeasureContextTest, CommandPathAndKernelShareOneSampleTick) {
  const TestedChip chip = MakeTestedChip("M1");
  TrapFaultEngine engine(chip.fault, chip.device.seed, chip.device.org);
  const dram::CellEncodingLayout encoding(chip.device.seed,
                                          chip.device.anti_cell_fraction);
  const Tick t_on = chip.device.timing.tRAS;
  const Celsius temp = 65.0;

  // First row with at least two weak cells, away from the array edge.
  dram::PhysicalRow row{0};
  for (dram::RowAddr r = 2; r < 4000; ++r) {
    if (engine.RowStateOf(0, dram::PhysicalRow{r}).cells.size() >= 2) {
      row = dram::PhysicalRow{r};
      break;
    }
  }
  ASSERT_NE(row.value, 0u);
  const dram::PhysicalRow above{row.value + 1};
  const dram::PhysicalRow below{row.value - 1};

  MeasureContext ctx =
      engine.MakeMeasureContext(0, row, 0x55, 0xAA, t_on, temp, encoding, 0);
  const std::vector<std::uint8_t> victim_data(chip.device.org.row_bytes,
                                              0x55);
  const std::vector<std::uint8_t> aggressor_data(chip.device.org.row_bytes,
                                                 0xAA);
  const Tick deltas[] = {20 * units::kMillisecond, 7 * units::kMillisecond,
                         20 * units::kMillisecond, 1 * units::kSecond,
                         333 * units::kMicrosecond};

  OutputDigest digest;
  std::vector<TrapFaultEngine::CellFlipPoint> points;
  std::vector<dram::BitFlip> flips;
  double min_hc = -1.0;
  int evaluations_with_flips = 0;
  int evaluations_without = 0;
  Tick now = 0;
  for (int i = 0; i < 150; ++i) {
    now += deltas[i % 5];
    if (i % 3 == 0 && min_hc > 0.0) {
      // Hammer just above the last analytic minimum, so the command
      // path's outcome depends on the trap states it samples.
      const auto count = static_cast<std::uint64_t>(min_hc * 1.02);
      engine.OnRestore(0, row, now);
      engine.OnActivations(0, above, count, t_on, now, temp, aggressor_data);
      engine.OnActivations(0, below, count, t_on, now, temp, aggressor_data);
      dram::VictimContext victim;
      victim.bank = 0;
      victim.row = row;
      victim.data = victim_data;
      victim.encoding = &encoding;
      victim.temperature = temp;
      victim.now = now;
      engine.Evaluate(victim, flips);
      ++(flips.empty() ? evaluations_without : evaluations_with_flips);
      digest.Add(std::uint64_t{flips.size()});
      for (const dram::BitFlip& flip : flips) {
        digest.Add(flip.BitIndex());
      }
    } else if (i % 3 == 1) {
      engine.PerCellFlipHammerCounts(ctx, now, points);
      for (const TrapFaultEngine::CellFlipPoint& point : points) {
        digest.Add(std::uint64_t{point.bit_index});
        digest.Add(point.hammer_count);
      }
    } else {
      min_hc = engine.MinFlipHammerCount(0, row, 0x55, 0xAA, t_on, temp,
                                         encoding, now);
      digest.Add(min_hc);
    }
  }
  // Both outcomes of the command path occur, so the digest covers
  // trap states that decided a flip.
  EXPECT_GT(evaluations_with_flips, 0);
  EXPECT_GT(evaluations_without, 0);
  EXPECT_EQ(digest.value(), 0x1e5897ef06b0d1f1ULL)
      << "measured 0x" << std::hex << digest.value() << "ULL";
}

/**
 * A series that cycles through more distinct deltas than the occupancy
 * memo holds makes it empty and refill over and over. Every output must
 * still equal a context rebuilt for every call on a twin engine, whose
 * memo is therefore cold.
 */
TEST(MeasureContextTest, MemoEvictionKeepsEveryOutput) {
  const TestedChip chip = MakeTestedChip("M1");
  TrapFaultEngine warm(chip.fault, chip.device.seed, chip.device.org);
  TrapFaultEngine cold(chip.fault, chip.device.seed, chip.device.org);
  const dram::CellEncodingLayout encoding(chip.device.seed,
                                          chip.device.anti_cell_fraction);
  const Tick t_on = chip.device.timing.tRAS;
  const Celsius temp = 65.0;

  // First row with at least two weak cells; both engines create its
  // state at tick 0.
  dram::PhysicalRow row{0};
  for (dram::RowAddr r = 1; r < 4000; ++r) {
    if (warm.RowStateOf(0, dram::PhysicalRow{r}).cells.size() >= 2) {
      row = dram::PhysicalRow{r};
      break;
    }
  }
  ASSERT_NE(row.value, 0u);
  ASSERT_EQ(cold.RowStateOf(0, row).cells.size(),
            warm.RowStateOf(0, row).cells.size());

  MeasureContext ctx =
      warm.MakeMeasureContext(0, row, 0x55, 0xAA, t_on, temp, encoding, 0);
  // Over twice the memo's capacity of distinct deltas per cycle, and
  // three cycles, so deltas come back after their entries were dropped.
  const std::size_t distinct = 2 * MeasureContext::kMemoCapacity + 3;
  std::vector<TrapFaultEngine::CellFlipPoint> warm_points;
  Tick now = 0;
  int compared = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t d = 0; d < distinct; ++d) {
      now += static_cast<Tick>(d + 1) * 97 * units::kMicrosecond;
      if (d % 4 == 3) {
        warm.PerCellFlipHammerCounts(ctx, now, warm_points);
        MeasureContext cold_ctx = cold.MakeMeasureContext(
            0, row, 0x55, 0xAA, t_on, temp, encoding, now);
        std::vector<TrapFaultEngine::CellFlipPoint> cold_points;
        cold.PerCellFlipHammerCounts(cold_ctx, now, cold_points);
        ASSERT_EQ(warm_points.size(), cold_points.size());
        for (std::size_t i = 0; i < cold_points.size(); ++i) {
          EXPECT_EQ(warm_points[i].bit_index, cold_points[i].bit_index);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(warm_points[i].hammer_count),
                    std::bit_cast<std::uint64_t>(cold_points[i].hammer_count));
        }
      } else {
        const double warm_min = warm.MinFlipHammerCount(ctx, now);
        const double cold_min = cold.MinFlipHammerCount(
            0, row, 0x55, 0xAA, t_on, temp, encoding, now);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm_min),
                  std::bit_cast<std::uint64_t>(cold_min));
      }
      ++compared;
    }
  }
  EXPECT_EQ(compared, 3 * static_cast<int>(distinct));
}

/// Rebuilding a hoisted MeasureContext must not grow memory once warm
/// (the allocation-free steady state the campaign shards rely on).
TEST(MeasureContextTest, ReuseOverloadMatchesFreshContext) {
  const TestedChip chip = MakeTestedChip("H1");
  // `probe` answers which rows have weak cells; `a` and `b` then first
  // see each row at the same running-clock instant, so their trap
  // histories stay aligned.
  TrapFaultEngine probe(chip.fault, chip.device.seed, chip.device.org);
  TrapFaultEngine a(chip.fault, chip.device.seed, chip.device.org);
  TrapFaultEngine b(chip.fault, chip.device.seed, chip.device.org);
  const dram::CellEncodingLayout encoding(chip.device.seed,
                                          chip.device.anti_cell_fraction);
  const Tick t_on = chip.device.timing.tRAS;

  MeasureContext reused;
  Tick now = 0;
  int compared = 0;
  for (dram::RowAddr r = 1; r < 200; ++r) {
    const dram::PhysicalRow row{r};
    if (probe.RowStateOf(0, row).cells.empty()) {
      continue;
    }
    // Fresh context per row on one engine, one rebuilt-in-place
    // context on the other: identical series.
    MeasureContext fresh = a.MakeMeasureContext(
        0, row, 0xFF, 0x00, t_on, 55.0, encoding, now);
    b.MakeMeasureContext(0, row, 0xFF, 0x00, t_on, 55.0, encoding, now,
                         reused);
    EXPECT_EQ(fresh.cell_count(), reused.cell_count());
    for (int i = 0; i < 12; ++i) {
      now += 15 * units::kMillisecond;
      EXPECT_EQ(a.MinFlipHammerCount(fresh, now),
                b.MinFlipHammerCount(reused, now));
    }
    ++compared;
  }
  EXPECT_GT(compared, 3);
}

}  // namespace
}  // namespace vrddram::vrd
