#include "core/campaign.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "bender/thermal.h"
#include "common/error.h"
#include "common/faultinject.h"
#include "common/telemetry.h"
#include "common/shards.h"
#include "core/campaign_checkpoint.h"

namespace vrddram::core {

// Out-of-range TOnChoice values arrive from user configuration (bench
// flags, config files), so per the error.h contract they are fatal
// user errors, not library panics.

std::string ToString(TOnChoice choice) {
  switch (choice) {
    case TOnChoice::kMinTras: return "min-tRAS";
    case TOnChoice::kTrefi: return "tREFI";
    case TOnChoice::kNineTrefi: return "9xtREFI";
  }
  throw FatalError("unknown tAggOn choice: " +
                   std::to_string(static_cast<int>(choice)));
}

Tick ResolveTOn(TOnChoice choice, const dram::TimingParams& timing) {
  switch (choice) {
    case TOnChoice::kMinTras: return timing.tRAS;
    case TOnChoice::kTrefi: return timing.tREFI;
    case TOnChoice::kNineTrefi: return 9 * timing.tREFI;
  }
  throw FatalError("unknown tAggOn choice: " +
                   std::to_string(static_cast<int>(choice)));
}

std::string FormatShardStatus(const ShardStatus& status) {
  switch (status.state) {
    case ShardState::kOk:
      return "ok";
    case ShardState::kRetried:
      return "retried-" + std::to_string(status.attempts - 1);
    case ShardState::kQuarantined:
      return "quarantined";
  }
  throw PanicError("unknown shard state");
}

std::vector<dram::RowAddr> SelectVulnerableRows(
    dram::Device& device, vrd::TrapFaultEngine& engine, dram::BankId bank,
    std::size_t per_region, std::size_t scan_per_region,
    dram::DataPattern pattern, Tick t_on) {
  VRD_FATAL_IF(per_region == 0 || scan_per_region < per_region,
               "invalid row-selection counts");
  const dram::RowAddr rows = device.org().rows_per_bank;
  VRD_FATAL_IF(scan_per_region * 3 > rows, "bank too small for selection");

  struct Candidate {
    dram::RowAddr row;
    double mean_rdt;
  };

  // One measurement context (rebuilt in place per scanned row) and one
  // candidate buffer serve every region of the scan.
  vrd::MeasureContext mctx;
  std::vector<Candidate> candidates;
  candidates.reserve(scan_per_region);

  std::vector<dram::RowAddr> selected;
  const dram::RowAddr last = device.org().LargestRowAddress();
  const dram::RowAddr scan = static_cast<dram::RowAddr>(scan_per_region);
  for (const dram::RowAddr begin :
       {dram::RowAddr{0}, (rows - scan) / 2, rows - scan}) {
    candidates.clear();
    for (dram::RowAddr row = begin; row < begin + scan; ++row) {
      const dram::PhysicalRow phys = device.mapper().ToPhysical(row);
      if (phys.value == 0 || phys.value >= last) {
        continue;
      }
      // 10 quick RDT samples, as the paper's selection step does, all
      // through one series-scoped context per scanned row.
      engine.MakeMeasureContext(bank, phys, dram::VictimByte(pattern),
                                dram::AggressorByte(pattern), t_on,
                                device.temperature(), device.encoding(),
                                device.Now(), mctx);
      double sum = 0.0;
      std::size_t hits = 0;
      for (int i = 0; i < 10; ++i) {
        const double rdt =
            engine.MinFlipHammerCount(mctx, device.Now());
        device.Sleep(10 * units::kMillisecond);
        if (rdt > 0.0) {
          sum += rdt;
          ++hits;
        }
      }
      if (hits == 10) {
        candidates.push_back(Candidate{row, sum / 10.0});
      }
    }
    // Tie-break equal means by row so the selected set is a pure
    // function of the measurements, not of sort implementation or
    // candidate order.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return std::tie(a.mean_rdt, a.row) <
                       std::tie(b.mean_rdt, b.row);
              });
    const std::size_t keep = std::min(per_region, candidates.size());
    for (std::size_t i = 0; i < keep; ++i) {
      selected.push_back(candidates[i].row);
    }
  }
  return selected;
}

namespace {

/// Simulated backoff before retry k is this base shifted left by k;
/// recorded in `ShardStatus::backoff_ticks`, never applied to a device
/// clock.
constexpr Tick kRetryBackoffBase = units::kSecond;

/**
 * One unit of campaign work: everything a single (device, temperature)
 * combination measures. The shard builds its own device from
 * (name, base_seed) — the same deterministic derivation for every
 * worker count — so shards share no mutable state and can run on any
 * thread in any order.
 */
std::vector<SeriesRecord> RunShard(const CampaignConfig& config,
                                   const std::string& name,
                                   Celsius temperature) {
  const vrd::TestedChip chip =
      vrd::MakeTestedChip(name, config.base_seed);
  std::unique_ptr<dram::Device> device =
      vrd::BuildDevice(name, config.base_seed);
  auto* engine = dynamic_cast<vrd::TrapFaultEngine*>(&device->model());
  VRD_ASSERT(engine != nullptr);
  if (device->config().has_on_die_ecc) {
    // §3.1: disable the HBM2 chips' on-die ECC via the mode register.
    device->SetOnDieEccEnabled(false);
  }

  // Row selection runs on the freshly built device, before the shard
  // temperature is applied, so every shard of the same device selects
  // the identical row set.
  const std::size_t per_region = config.rows_per_device / 3;
  const std::vector<dram::RowAddr> rows = SelectVulnerableRows(
      *device, *engine, /*bank=*/0, per_region,
      config.scan_rows_per_region, dram::DataPattern::kCheckered0,
      device->timing().tRAS);

  if (config.use_thermal_rig) {
    bender::TemperatureController rig(*device);
    rig.SettleTo(temperature);
  } else {
    device->SetTemperature(temperature);
    device->Sleep(30 * units::kSecond);
  }

  std::vector<SeriesRecord> records;
  // Hoisted series scratch: the measurement loop reuses one buffer and
  // the profiler's in-place series context; each record keeps only the
  // series' runs, built once here.
  std::vector<std::int64_t> series_scratch;
  for (const TOnChoice t_on_choice : config.t_ons) {
    const Tick t_on = ResolveTOn(t_on_choice, device->timing());
    for (const dram::DataPattern pattern : config.patterns) {
      ProfilerConfig pc;
      pc.bank = 0;
      pc.pattern = pattern;
      pc.t_on = t_on;
      RdtProfiler profiler(*device, pc);

      for (const dram::RowAddr row : rows) {
        const std::optional<std::uint64_t> guess = profiler.GuessRdt(row);
        if (!guess) {
          continue;  // row does not flip under this combination
        }
        SeriesRecord record;
        record.device = name;
        record.mfr = chip.spec.mfr;
        record.standard = chip.spec.standard;
        record.density_gbit = chip.spec.density_gbit;
        record.die_rev = chip.spec.die_rev;
        record.row = row;
        record.pattern = pattern;
        record.t_on = t_on_choice;
        record.temperature = temperature;
        record.rdt_guess = *guess;
        profiler.MeasureSeries(row, *guess, config.measurements,
                               series_scratch);
        record.flips = BuildSortedFlips(series_scratch);
        records.push_back(std::move(record));
      }
    }
  }
  return records;
}

}  // namespace

void ValidateCampaignConfig(const CampaignConfig& config) {
  VRD_FATAL_IF(config.devices.empty(), "campaign needs devices");
  // Rows are selected per region, a third each; any other count would
  // silently run a different number of rows.
  VRD_FATAL_IF(
      config.rows_per_device == 0 || config.rows_per_device % 3 != 0,
      "campaign rows per device must be a positive multiple of 3, got " +
          std::to_string(config.rows_per_device));
  VRD_FATAL_IF(config.measurements == 0, "campaign needs measurements");
  VRD_FATAL_IF(config.patterns.empty(), "campaign needs data patterns");
  VRD_FATAL_IF(config.t_ons.empty(), "campaign needs tAggOn choices");
  VRD_FATAL_IF(config.temperatures.empty(), "campaign needs temperatures");
  VRD_FATAL_IF(config.max_attempts == 0,
               "campaign needs at least one attempt per shard");
  VRD_FATAL_IF(config.resume && config.checkpoint_path.empty(),
               "campaign resume requires a checkpoint path");
}

CampaignResult RunCampaign(const CampaignConfig& config,
                           std::ostream* progress) {
  ValidateCampaignConfig(config);

  // Parsed once, shared read-only by every worker; each shard attempt
  // opens its own FaultScope so fire schedules depend only on
  // (seed, site, shard label, attempt), never on thread count.
  const fi::FaultPlan plan =
      fi::FaultPlan::Parse(config.inject, config.base_seed);
  for (const fi::SiteSpec& spec : plan.sites()) {
    if (std::ranges::find(fi::kWiredSites, spec.site) ==
        fi::kWiredSites.end()) {
      std::string wired;
      for (const std::string_view site : fi::kWiredSites) {
        wired += (wired.empty() ? "" : ", ") + std::string(site);
      }
      VRD_FATAL_IF(true, "fault spec: unknown site '" + spec.site +
                             "' (wired sites: " + wired + ")");
    }
  }
  const std::uint64_t config_hash = HashCampaignConfig(config);

  struct Shard {
    const std::string* device = nullptr;
    Celsius temperature = 0.0;
  };
  // Canonical shard order: device-major, temperature-minor — the same
  // nesting the serial loop used, and the order results merge in.
  std::vector<Shard> shards;
  shards.reserve(config.devices.size() * config.temperatures.size());
  for (const std::string& name : config.devices) {
    for (const Celsius temperature : config.temperatures) {
      shards.push_back(Shard{&name, temperature});
    }
  }

  const Stopwatch wall_watch;
  std::mutex progress_mutex;
  std::vector<std::vector<SeriesRecord>> per_shard(shards.size());
  std::vector<ShardStatus> statuses(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    statuses[i].device = *shards[i].device;
    statuses[i].temperature = shards[i].temperature;
  }
  // Not vector<bool>: workers write distinct indices concurrently.
  std::vector<char> restored(shards.size(), 0);
  std::vector<char> completed(shards.size(), 0);

  if (config.resume) {
    CampaignCheckpoint checkpoint;
    if (LoadCheckpointFor(config.checkpoint_path, config_hash,
                          &checkpoint)) {
      for (CampaignCheckpoint::ShardEntry& entry : checkpoint.shards) {
        VRD_FATAL_IF(entry.index >= shards.size(),
                     "checkpoint: shard index " +
                         std::to_string(entry.index) + " out of range");
        const Shard& shard = shards[entry.index];
        VRD_FATAL_IF(entry.status.device != *shard.device ||
                         entry.status.temperature != shard.temperature,
                     "checkpoint: shard " + std::to_string(entry.index) +
                         " key mismatch (expected " + *shard.device +
                         ", got " + entry.status.device + ")");
        per_shard[entry.index] = std::move(entry.records);
        statuses[entry.index] = std::move(entry.status);
        restored[entry.index] = 1;
        completed[entry.index] = 1;
      }
    }
  }

  // Persist every completed non-quarantined shard. Serialized by the
  // mutex; rewrites the whole snapshot (shard counts are small) via
  // the atomic tmp+rename in SaveCheckpoint, so an interrupt at any
  // instant leaves a loadable file.
  std::mutex checkpoint_mutex;
  auto persist_completed = [&]() {
    CampaignCheckpoint checkpoint;
    checkpoint.config_hash = config_hash;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (completed[i] == 0 ||
          statuses[i].state == ShardState::kQuarantined) {
        continue;
      }
      CampaignCheckpoint::ShardEntry entry;
      entry.index = i;
      entry.status = statuses[i];
      entry.records = per_shard[i];
      checkpoint.shards.push_back(std::move(entry));
    }
    SaveCheckpoint(config.checkpoint_path, checkpoint);
  };

  auto run_one = [&](std::size_t index) {
    const Shard& shard = shards[index];
    ShardStatus& status = statuses[index];
    if (restored[index] != 0) {
      if (progress != nullptr) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        *progress << "campaign: " << *shard.device << " @ "
                  << shard.temperature
                  << " degC: restored from checkpoint ("
                  << per_shard[index].size() << " series)\n";
      }
      return;
    }
    const Stopwatch shard_watch;
    std::ostringstream label;
    label << "campaign/" << *shard.device << '@' << shard.temperature;
    const std::string scope_label = label.str();
    for (std::uint64_t attempt = 0;; ++attempt) {
      try {
        fi::FaultScope scope(plan, scope_label, attempt);
        if (fi::ShouldFire("core.campaign.shard")) {
          throw TransientError("campaign shard " + scope_label +
                               " failed (injected)");
        }
        per_shard[index] =
            RunShard(config, *shard.device, shard.temperature);
        status.attempts = attempt + 1;
        status.state =
            attempt == 0 ? ShardState::kOk : ShardState::kRetried;
        break;
      } catch (const TransientError& error) {
        per_shard[index].clear();
        status.error = error.what();
        status.attempts = attempt + 1;
        if (attempt + 1 < config.max_attempts) {
          // Exponential backoff between attempts, in simulated ticks.
          // Bookkeeping only: the next attempt rebuilds its device
          // from scratch, and advancing any clock here would make a
          // retried shard diverge from a never-failed one.
          status.backoff_ticks += kRetryBackoffBase << attempt;
          continue;
        }
        if (!config.quarantine) {
          throw;
        }
        status.state = ShardState::kQuarantined;
        break;
      } catch (const FatalError& error) {
        // A user-error shard cannot succeed on retry: quarantine it
        // immediately (or propagate when quarantine is off).
        per_shard[index].clear();
        status.error = error.what();
        status.attempts = attempt + 1;
        if (!config.quarantine) {
          throw;
        }
        status.state = ShardState::kQuarantined;
        break;
      }
      // PanicError and unknown exceptions propagate: a library bug
      // must never be quarantined away (error.h contract).
    }
    if (!config.checkpoint_path.empty()) {
      const std::lock_guard<std::mutex> lock(checkpoint_mutex);
      completed[index] = 1;
      persist_completed();
    } else {
      completed[index] = 1;
    }
    if (progress == nullptr) {
      return;
    }
    const double seconds = shard_watch.Seconds();
    std::ostringstream line;
    line << "campaign: " << *shard.device << " @ " << shard.temperature
         << " degC: ";
    if (status.state == ShardState::kQuarantined) {
      line << "quarantined after " << status.attempts << " attempt(s): "
           << status.error;
    } else {
      std::size_t rows = 0;
      std::size_t measurements = 0;
      {
        std::set<dram::RowAddr> distinct;
        for (const SeriesRecord& record : per_shard[index]) {
          distinct.insert(record.row);
          measurements += record.flips.measurements();
        }
        rows = distinct.size();
      }
      const std::size_t series = per_shard[index].size();
      line << rows << " rows, " << series << " series, " << measurements
           << " measurements in " << seconds << " s";
      if (seconds > 0.0) {
        line << " (" << static_cast<double>(series) / seconds
             << " series/s, "
             << static_cast<double>(measurements) / seconds
             << " meas/s)";
      }
      if (status.state == ShardState::kRetried) {
        line << " [" << FormatShardStatus(status) << ']';
      }
    }
    line << '\n';
    const std::lock_guard<std::mutex> lock(progress_mutex);
    *progress << line.str();
  };

  const std::size_t workers =
      RunShards(shards.size(), config.threads, run_one);

  CampaignResult result;
  std::size_t total_series = 0;
  std::size_t total_measurements = 0;
  for (std::vector<SeriesRecord>& records : per_shard) {
    for (SeriesRecord& record : records) {
      total_series += 1;
      total_measurements += record.flips.measurements();
      result.records.push_back(std::move(record));
    }
  }
  std::size_t retried = 0;
  std::size_t quarantined = 0;
  std::size_t from_checkpoint = 0;
  for (const ShardStatus& status : statuses) {
    retried += status.state == ShardState::kRetried ? 1 : 0;
    quarantined += status.state == ShardState::kQuarantined ? 1 : 0;
    from_checkpoint += status.from_checkpoint ? 1 : 0;
  }
  result.shards = std::move(statuses);
  if (progress != nullptr) {
    const double seconds = wall_watch.Seconds();
    *progress << "campaign: done: " << shards.size() << " shards ("
              << shards.size() - quarantined << " ok, " << retried
              << " retried, " << quarantined << " quarantined, "
              << from_checkpoint << " restored), " << total_series
              << " series, " << total_measurements
              << " measurements in " << seconds << " s wall on "
              << workers << " thread(s)";
    if (seconds > 0.0) {
      *progress << " ("
                << static_cast<double>(total_measurements) / seconds
                << " meas/s)";
    }
    *progress << '\n';
  }
  return result;
}

}  // namespace vrddram::core
