#include "core/guardband.h"

#include <algorithm>
#include <array>
#include <memory>
#include <ostream>
#include <string>

#include "common/error.h"
#include "common/shards.h"
#include "core/campaign.h"

namespace vrddram::core {

namespace {

/// Baseline RDT measurements per row; the row's min over them anchors
/// every margin.
constexpr std::size_t kBaselineMeasurements = 5;
/// Study temperature.
constexpr Celsius kTemperature = 50.0;

/// Largest per-group flip count over sorted unique bit indices, where
/// a bit's group is bit / bits_per_group (codeword locality). Sorted
/// input makes groups contiguous, so one linear run-length scan
/// replaces the histogram map the study previously built per margin —
/// the maxima are identical, and the scan allocates nothing.
std::size_t MaxFlipsPerGroup(std::span<const std::uint32_t> sorted_bits,
                             std::uint32_t bits_per_group) {
  std::size_t worst = 0;
  std::size_t run = 0;
  std::uint32_t group = 0;
  for (const std::uint32_t bit : sorted_bits) {
    const std::uint32_t g = bit / bits_per_group;
    if (run == 0 || g != group) {
      group = g;
      run = 0;
    }
    ++run;
    worst = std::max(worst, run);
  }
  return worst;
}

/// One shard's slot: the device's selected row count and its outcomes
/// in (pattern, row) order.
struct DeviceStudy {
  std::size_t rows = 0;
  std::vector<RowGuardbandOutcome> outcomes;
};

/// One shard of the study. The device is BuildDevice(name, base_seed)
/// with its own clock, so the result depends on nothing but the name.
DeviceStudy StudyDevice(const GuardbandConfig& config,
                        const std::string& name) {
  DeviceStudy study;

  // Shard-local scratch reused by every (pattern, row) combination:
  // the measurement loops are allocation-free once the buffers reach
  // their high-water capacity.
  vrd::MeasureContext mctx;
  std::vector<std::int64_t> baseline;
  std::vector<vrd::TrapFaultEngine::CellFlipPoint> points;
  std::array<std::vector<std::uint32_t>, kGuardbandMargins.size()>
      flipped_bits;
  std::vector<std::uint32_t> chip_scratch;

  std::unique_ptr<dram::Device> device =
      vrd::BuildDevice(name, config.base_seed);
  auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());
  VRD_ASSERT(engine != nullptr);
  device->SetTemperature(kTemperature);

  const std::size_t per_region = config.rows_per_device / 3;
  const std::vector<dram::RowAddr> rows = SelectVulnerableRows(
      *device, *engine, /*bank=*/0, per_region,
      config.scan_rows_per_region, dram::DataPattern::kCheckered0,
      device->timing().tRAS);
  study.rows = rows.size();

  for (const dram::DataPattern pattern : config.patterns) {
    ProfilerConfig pc;
    pc.bank = 0;
    pc.pattern = pattern;
    RdtProfiler profiler(*device, pc);

    for (const dram::RowAddr row : rows) {
      // Step 1: a handful of RDT measurements; keep the minimum.
      const std::optional<std::uint64_t> guess = profiler.GuessRdt(row);
      if (!guess) {
        continue;
      }
      profiler.MeasureSeries(row, *guess, kBaselineMeasurements, baseline);
      const std::int64_t min_rdt = MinObservedRdt(baseline);
      if (min_rdt <= 0) {
        continue;
      }

      RowGuardbandOutcome outcome;
      outcome.device = name;
      outcome.row = row;
      outcome.pattern = pattern;
      outcome.min_rdt = static_cast<std::uint64_t>(min_rdt);

      const dram::PhysicalRow phys = device->mapper().ToPhysical(row);
      const std::uint32_t chips = device->org().chips_per_rank;
      const Tick t_on = device->timing().tRAS;
      const Tick trial_time =
          static_cast<Tick>(2 * outcome.min_rdt) *
          (t_on + device->timing().tRP);

      // Step 2: hammer repeatedly and union the flipping cells per
      // margin. One trial is one physical hammer: its per-cell flip
      // points answer every margin at once (a cell flips at margin m
      // iff 0 <= hammer count <= the margin's limit), so each margin
      // still sees config.trials draws of the trap process and the
      // flip sets are nested as the margin grows. All trials query the
      // same (row, pattern, temperature), so one rebuilt-in-place
      // MeasureContext and the hoisted scratch buffers serve the whole
      // sweep without allocating.
      engine->MakeMeasureContext(
          /*bank=*/0, phys, dram::VictimByte(pattern),
          dram::AggressorByte(pattern), t_on, kTemperature,
          device->encoding(), device->Now(), mctx);
      std::vector<MarginOutcome>& per = outcome.per_margin;
      per.resize(kGuardbandMargins.size());
      for (std::size_t m = 0; m < per.size(); ++m) {
        per[m].margin = kGuardbandMargins[m];
        per[m].hammer_count =
            GuardbandHammerCount(outcome.min_rdt, per[m].margin);
        flipped_bits[m].clear();
      }
      for (std::size_t trial = 0; trial < config.trials; ++trial) {
        std::array<bool, kGuardbandMargins.size()> any{};
        engine->PerCellFlipHammerCounts(mctx, device->Now(), points);
        for (const auto& point : points) {
          for (std::size_t m = 0; m < per.size(); ++m) {
            if (point.hammer_count >= 0.0 &&
                point.hammer_count <=
                    static_cast<double>(per[m].hammer_count)) {
              flipped_bits[m].push_back(point.bit_index);
              any[m] = true;
            }
          }
        }
        for (std::size_t m = 0; m < per.size(); ++m) {
          if (any[m]) {
            ++per[m].trials_with_flips;
          }
        }
        device->Sleep(trial_time);
      }

      for (std::size_t m = 0; m < per.size(); ++m) {
        std::vector<std::uint32_t>& bits = flipped_bits[m];
        // Deduplicate across trials: sort+unique in the hoisted
        // buffer stands in for an ordered set (same unique bits, same
        // order).
        std::sort(bits.begin(), bits.end());
        bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
        per[m].unique_bitflips = bits.size();

        // Codeword maxima via run-length scans over the sorted bits
        // (a SECDED codeword covers 8 bytes = 64 bits, a chipkill
        // codeword 16 bytes = 128); chips touched via the sorted
        // chip-index scratch. All pure functions of the bit set.
        per[m].max_per_secded_codeword = MaxFlipsPerGroup(bits, 64);
        per[m].max_per_chipkill_codeword = MaxFlipsPerGroup(bits, 128);
        chip_scratch.clear();
        for (const std::uint32_t bit : bits) {
          chip_scratch.push_back((bit / 8) % chips);
        }
        std::sort(chip_scratch.begin(), chip_scratch.end());
        chip_scratch.erase(
            std::unique(chip_scratch.begin(), chip_scratch.end()),
            chip_scratch.end());
        per[m].chips_touched = chip_scratch.size();
      }
      study.outcomes.push_back(std::move(outcome));
    }
  }
  return study;
}

}  // namespace

std::uint64_t GuardbandHammerCount(std::uint64_t min_rdt,
                                   std::uint32_t margin_pct) {
  VRD_FATAL_IF(margin_pct >= 100, "margin must be below 100%");
  return std::max<std::uint64_t>(1, min_rdt * (100 - margin_pct) / 100);
}

std::vector<RowGuardbandOutcome> RunGuardbandStudy(
    const GuardbandConfig& config, std::ostream* progress) {
  VRD_FATAL_IF(config.devices.empty(), "study needs devices");
  VRD_FATAL_IF(config.trials == 0, "study needs trials");
  // Rows are selected per region, a third each; any other count would
  // silently run a different number of rows.
  VRD_FATAL_IF(
      config.rows_per_device == 0 || config.rows_per_device % 3 != 0,
      "guardband study rows per device must be a positive multiple of 3, "
      "got " + std::to_string(config.rows_per_device));
  // One shard per device. The merge runs on the calling thread and
  // walks the slots in device order, so the outcomes and the progress
  // lines are the serial study's at any worker count.
  std::vector<DeviceStudy> per_device =
      MapShards(config.devices.size(), config.threads,
                [&](std::size_t i) {
                  return StudyDevice(config, config.devices[i]);
                });
  std::vector<RowGuardbandOutcome> outcomes;
  for (std::size_t i = 0; i < per_device.size(); ++i) {
    if (progress != nullptr) {
      *progress << "guardband: " << config.devices[i] << ", "
                << per_device[i].rows << " rows\n";
    }
    for (RowGuardbandOutcome& outcome : per_device[i].outcomes) {
      outcomes.push_back(std::move(outcome));
    }
  }
  return outcomes;
}

std::map<std::size_t, std::size_t> BitflipHistogramAtMargin(
    const std::vector<RowGuardbandOutcome>& outcomes,
    std::uint32_t margin_pct) {
  std::map<std::size_t, std::size_t> hist;
  for (const RowGuardbandOutcome& outcome : outcomes) {
    for (const MarginOutcome& per : outcome.per_margin) {
      if (per.margin == margin_pct) {
        ++hist[per.unique_bitflips];
      }
    }
  }
  return hist;
}

double WorstBitErrorRate(const std::vector<RowGuardbandOutcome>& outcomes,
                         std::uint32_t margin_pct, std::size_t row_bits) {
  VRD_FATAL_IF(row_bits == 0, "row must have bits");
  std::size_t worst = 0;
  for (const RowGuardbandOutcome& outcome : outcomes) {
    for (const MarginOutcome& per : outcome.per_margin) {
      if (per.margin == margin_pct) {
        worst = std::max(worst, per.unique_bitflips);
      }
    }
  }
  return static_cast<double>(worst) / static_cast<double>(row_bits);
}

}  // namespace vrddram::core
