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

std::vector<std::string> ResolveDevices(const std::string& spec,
                                        const std::string& flag) {
  if (spec == "all") {
    return vrd::AllDeviceNames();
  }
  if (spec == "ddr4") {
    return vrd::Ddr4ModuleNames();
  }
  if (spec == "hbm2") {
    return vrd::Hbm2ChipNames();
  }
  const std::vector<std::string>& known = vrd::AllDeviceNames();
  const std::string where = "--" + flag + "=" + spec + ": ";
  std::vector<std::string> names;
  std::istringstream is(spec);
  std::string token;
  while (std::getline(is, token, ',')) {
    if (token.empty()) {
      continue;
    }
    VRD_FATAL_IF(std::find(known.begin(), known.end(), token) == known.end(),
                 where + "unknown device '" + token +
                     "'; expected all, ddr4, hbm2 or a comma list of "
                     "table01_population's devices");
    VRD_FATAL_IF(std::find(names.begin(), names.end(), token) != names.end(),
                 where + "device '" + token + "' is listed twice");
    names.push_back(token);
  }
  VRD_FATAL_IF(names.empty(), where + "no devices");
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

void AddBoxRow(TextTable& table, const std::vector<std::string>& labels,
               const stats::BoxStats& box, int precision) {
  std::vector<std::string> row = labels;
  for (const double value :
       {box.min, box.q1, box.median, box.q3, box.max, box.mean}) {
    row.push_back(Cell(value, precision));
  }
  table.AddRow(row);
}

double AddNormMinRows(TextTable& table,
                      const std::vector<std::string>& labels,
                      const std::vector<std::vector<double>>& per_n,
                      const core::MinRdtSettings& settings) {
  double median_n1 = std::nan("");
  for (std::size_t i = 0; i < settings.sample_sizes.size(); ++i) {
    const stats::BoxStats box = Box(per_n[i]);
    std::vector<std::string> row = labels;
    row.insert(row.end(),
               {Cell(static_cast<std::uint64_t>(settings.sample_sizes[i])),
                Cell(box.median, 4), Cell(box.max, 4), Cell(box.mean, 4)});
    table.AddRow(row);
    if (settings.sample_sizes[i] == 1) {
      median_n1 = box.median;
    }
  }
  return median_n1;
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
