#include "common/bench_util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <tuple>

#include "common/error.h"
#include "common/shards.h"

namespace vrddram::bench {

namespace {

/// Split a "--key[=value]" token; a bare "--key" means "true".
bool SplitFlagToken(const std::string& arg, std::string* key,
                    std::string* value) {
  if (arg.rfind("--", 0) != 0) {
    return false;
  }
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos) {
    *key = arg.substr(2);
    *value = "true";
  } else {
    *key = arg.substr(2, eq - 2);
    *value = arg.substr(eq + 1);
  }
  return true;
}

[[noreturn]] void ThrowBadValue(const std::string& key,
                                const std::string& value,
                                const std::string& expected) {
  throw FatalError("flag --" + key + "=" + value + ": expected " +
                   expected);
}

// The whole token must parse: from_chars takes no leading whitespace or
// '+', no sign at all for unsigned types, and reports overflow.
std::uint64_t ParseUint(const std::string& key, const std::string& value) {
  std::uint64_t parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ec != std::errc() || ptr != end) {
    ThrowBadValue(key, value, "an unsigned decimal integer below 2^64");
  }
  return parsed;
}

double ParseDouble(const std::string& key, const std::string& value) {
  double parsed = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(parsed)) {
    ThrowBadValue(key, value, "a finite decimal number");
  }
  return parsed;
}

bool ParseBool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1") {
    return true;
  }
  if (value == "false" || value == "0") {
    return false;
  }
  ThrowBadValue(key, value, "one of true, false, 1, 0");
}

}  // namespace

Flags::Flags(const std::vector<std::string>& args,
             const std::vector<FlagSpec>& schema)
    : schema_(schema) {
  for (const std::string& arg : args) {
    std::string key;
    std::string value;
    VRD_FATAL_IF(!SplitFlagToken(arg, &key, &value),
                 "unrecognized argument: " + arg +
                     " (flags are --key=value)\n" + Describe(schema_));
    const bool known =
        std::any_of(schema_.begin(), schema_.end(),
                    [&](const FlagSpec& spec) { return spec.name == key; });
    VRD_FATAL_IF(!known, "unknown flag --" + key + "\n" + Describe(schema_));
    values_[key] = value;
  }
}

const FlagSpec& Flags::SpecFor(const std::string& key) const {
  for (const FlagSpec& spec : schema_) {
    if (spec.name == key) {
      return spec;
    }
  }
  VRD_FATAL_IF(true, "flag --" + key +
                         " is not in this experiment's schema\n" +
                         Describe(schema_));
  std::abort();  // unreachable: VRD_FATAL_IF threw
}

std::uint64_t Flags::GetUint(const std::string& key) const {
  return ParseUint(key, GetString(key));
}

double Flags::GetDouble(const std::string& key) const {
  return ParseDouble(key, GetString(key));
}

std::string Flags::GetString(const std::string& key) const {
  const FlagSpec& spec = SpecFor(key);
  const auto it = values_.find(key);
  return it == values_.end() ? spec.default_value : it->second;
}

bool Flags::GetBool(const std::string& key) const {
  return ParseBool(key, GetString(key));
}

bool Flags::Declares(const std::string& key) const {
  return std::any_of(schema_.begin(), schema_.end(),
                     [&](const FlagSpec& spec) { return spec.name == key; });
}

std::string Flags::Describe() const { return Describe(schema_); }

std::string Flags::Describe(const std::vector<FlagSpec>& schema) {
  if (schema.empty()) {
    return "";
  }
  std::size_t width = 0;
  for (const FlagSpec& spec : schema) {
    width = std::max(width,
                     spec.name.size() + spec.default_value.size() + 3);
  }
  std::ostringstream os;
  os << "flags:\n";
  for (const FlagSpec& spec : schema) {
    const std::string left = "--" + spec.name + "=" + spec.default_value;
    os << "  " << left << std::string(width + 2 - left.size(), ' ')
       << spec.help << '\n';
  }
  return os.str();
}

std::vector<std::string> ResolveDevices(const std::string& spec) {
  if (spec == "all") {
    return vrd::AllDeviceNames();
  }
  if (spec == "ddr4") {
    return vrd::Ddr4ModuleNames();
  }
  if (spec == "hbm2") {
    return vrd::Hbm2ChipNames();
  }
  std::vector<std::string> names;
  std::istringstream is(spec);
  std::string token;
  while (std::getline(is, token, ',')) {
    if (!token.empty()) {
      names.push_back(token);
    }
  }
  VRD_FATAL_IF(names.empty(), "no devices in --devices spec");
  return names;
}

void PrintShardSummary(std::ostream& os,
                       const core::CampaignResult& result) {
  if (result.shards.empty()) {
    return;
  }
  std::size_t ok = 0;
  std::size_t retried = 0;
  std::size_t quarantined = 0;
  for (const core::ShardStatus& status : result.shards) {
    switch (status.state) {
      case core::ShardState::kOk: ++ok; break;
      case core::ShardState::kRetried: ++retried; break;
      case core::ShardState::kQuarantined: ++quarantined; break;
    }
  }
  os << "shards: " << result.shards.size() << " total, " << ok << " ok, "
     << retried << " retried, " << quarantined << " quarantined\n";
  for (const core::ShardStatus& status : result.shards) {
    if (status.state == core::ShardState::kOk) {
      continue;
    }
    os << "shard " << status.device << " @ " << status.temperature
       << " degC: " << core::FormatShardStatus(status);
    if (!status.error.empty()) {
      os << " (" << status.error << ')';
    }
    os << '\n';
  }
}

std::string ManufacturerGroupName(const core::SeriesRecord& record) {
  if (record.standard == dram::Standard::kHbm2) {
    return "Mfr. S HBM2";
  }
  return ToString(record.mfr);
}

bool CollectSingleRowSeries(const std::string& device_name,
                            std::size_t measurements,
                            std::uint64_t seed, SingleRowSeries* out) {
  auto device = vrd::BuildDevice(device_name, seed);
  if (device->config().has_on_die_ecc) {
    device->SetOnDieEccEnabled(false);  // §3.1
  }
  device->SetTemperature(80.0);

  core::ProfilerConfig pc;
  pc.pattern = dram::DataPattern::kCheckered0;
  core::RdtProfiler profiler(*device, pc);
  const auto victim = profiler.FindVictim(1, 8192);
  if (!victim) {
    return false;
  }
  out->row = victim->row;
  out->rdt_guess = victim->rdt_guess;
  out->series =
      profiler.MeasureSeries(victim->row, victim->rdt_guess, measurements);
  return true;
}

namespace {

using SingleRowKey = std::tuple<std::string, std::size_t, std::uint64_t>;

/// AnalyzeSingleRowSeries's memo, keyed on (device, measurements, seed).
std::map<SingleRowKey, std::optional<SingleRowAnalysis>>& SingleRowMemo() {
  static std::map<SingleRowKey, std::optional<SingleRowAnalysis>> memo;
  return memo;
}

}  // namespace

std::vector<std::optional<SingleRowAnalysis>> AnalyzeSingleRowSeries(
    const std::vector<std::string>& devices, std::size_t measurements,
    std::uint64_t seed, std::size_t threads) {
  auto& memo = SingleRowMemo();
  std::vector<std::string> missing;
  for (const std::string& device : devices) {
    if (!memo.contains({device, measurements, seed}) &&
        std::find(missing.begin(), missing.end(), device) == missing.end()) {
      missing.push_back(device);
    }
  }
  auto measured = MapShards(
      missing.size(), threads,
      [&](std::size_t i) -> std::optional<SingleRowAnalysis> {
        SingleRowSeries data;
        if (!CollectSingleRowSeries(missing[i], measurements, seed, &data)) {
          return std::nullopt;
        }
        return SingleRowAnalysis{data.row, core::AnalyzeSeries(data.series)};
      });
  for (std::size_t i = 0; i < missing.size(); ++i) {
    memo.emplace(SingleRowKey{missing[i], measurements, seed},
                 std::move(measured[i]));
  }
  std::vector<std::optional<SingleRowAnalysis>> analyses;
  analyses.reserve(devices.size());
  for (const std::string& device : devices) {
    analyses.push_back(memo.at({device, measurements, seed}));
  }
  return analyses;
}

void ClearSingleRowAnalyses() { SingleRowMemo().clear(); }

void AddBoxRow(TextTable& table, const std::string& label,
               const stats::BoxStats& box, int precision) {
  table.AddRow({label, Cell(box.min, precision), Cell(box.q1, precision),
                Cell(box.median, precision), Cell(box.q3, precision),
                Cell(box.max, precision), Cell(box.mean, precision)});
}

void PrintCheck(std::ostream& os, const std::string& name,
                const std::string& paper, const std::string& measured) {
  os << "CHECK " << name << ": paper=" << paper
     << " measured=" << measured << '\n';
}

void PrintCheck(std::ostream& os, const std::string& name, double paper,
                double measured, int precision) {
  PrintCheck(os, name, Cell(paper, precision), Cell(measured, precision));
}

void PrintCheck(std::ostream& os, const std::string& name,
                const std::string& paper, double measured, int precision) {
  PrintCheck(os, name, paper, Cell(measured, precision));
}

stats::BoxStats Box(const std::vector<double>& xs) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  return stats::ComputeBoxStats(
      sorted.size(), [&sorted](std::size_t i) { return sorted[i]; },
      stats::Mean(xs));
}

}  // namespace vrddram::bench
