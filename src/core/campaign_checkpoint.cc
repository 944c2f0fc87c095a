#include "core/campaign_checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"

namespace vrddram::core {

namespace {

constexpr char kMagic[] = "vrddram-campaign-checkpoint";

/// Doubles round-trip as bit-cast hex so restored values are exact.
std::string DoubleToHex(double value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0')
     << std::bit_cast<std::uint64_t>(value);
  return os.str();
}

double HexToDouble(const std::string& text) {
  std::uint64_t bits = 0;
  std::istringstream is(text);
  is >> std::hex >> bits;
  VRD_FATAL_IF(is.fail() || !is.eof(),
               "checkpoint: bad float field '" + text + "'");
  return std::bit_cast<double>(bits);
}

/// A token the grammar stores bare must not break tokenization.
void CheckToken(const std::string& token, const char* what) {
  VRD_FATAL_IF(token.empty() ||
                   token.find_first_of(" \t\n\r") != std::string::npos,
               std::string("checkpoint: ") + what +
                   " must be a non-empty whitespace-free token, got '" +
                   token + "'");
}

void Expect(std::istream& is, const char* keyword) {
  std::string word;
  is >> word;
  VRD_FATAL_IF(word != keyword, "checkpoint: expected '" +
                                    std::string(keyword) + "', got '" +
                                    word + "'");
}

template <typename T>
T ReadInt(std::istream& is, const char* what) {
  T value{};
  is >> value;
  VRD_FATAL_IF(is.fail(),
               std::string("checkpoint: bad integer field: ") + what);
  return value;
}

/// An enum stored as its integer value; anything outside
/// [0, `last`] is a corrupted field, not a value to cast.
template <typename E>
E ReadEnum(std::istream& is, const char* what, E last) {
  const int value = ReadInt<int>(is, what);
  VRD_FATAL_IF(value < 0 || value > static_cast<int>(last),
               std::string("checkpoint: ") + what + " " +
                   std::to_string(value) + " out of range [0, " +
                   std::to_string(static_cast<int>(last)) + "]");
  return static_cast<E>(value);
}

double ReadHexDouble(std::istream& is, const char* what) {
  std::string token;
  is >> token;
  VRD_FATAL_IF(is.fail(),
               std::string("checkpoint: missing float field: ") + what);
  return HexToDouble(token);
}

std::string ReadToken(std::istream& is, const char* what) {
  std::string token;
  is >> token;
  VRD_FATAL_IF(is.fail(),
               std::string("checkpoint: missing field: ") + what);
  return token;
}

void WriteRecord(std::ostream& os, const SeriesRecord& record) {
  os << "record " << record.device << ' '
     << static_cast<int>(record.mfr) << ' '
     << static_cast<int>(record.standard) << ' ' << record.density_gbit
     << ' ' << static_cast<int>(record.die_rev) << ' ' << record.row
     << ' ' << static_cast<int>(record.pattern) << ' '
     << static_cast<int>(record.t_on) << ' '
     << DoubleToHex(record.temperature) << ' ' << record.rdt_guess << ' '
     << record.series.size() << '\n';
  for (std::size_t i = 0; i < record.series.size(); ++i) {
    os << (i == 0 ? "" : " ") << record.series[i];
  }
  os << '\n';
}

SeriesRecord ReadRecord(std::istream& is) {
  Expect(is, "record");
  SeriesRecord record;
  record.device = ReadToken(is, "record device");
  record.mfr = ReadEnum(is, "mfr", vrd::Manufacturer::kMfrS);
  record.standard = ReadEnum(is, "standard", dram::Standard::kHbm2);
  record.density_gbit = ReadInt<std::uint32_t>(is, "density");
  record.die_rev = static_cast<char>(ReadInt<int>(is, "die_rev"));
  record.row = ReadInt<dram::RowAddr>(is, "row");
  record.pattern =
      ReadEnum(is, "pattern", dram::DataPattern::kCheckered1);
  record.t_on = ReadEnum(is, "t_on", TOnChoice::kNineTrefi);
  record.temperature = ReadHexDouble(is, "record temperature");
  record.rdt_guess = ReadInt<std::uint64_t>(is, "rdt_guess");
  const auto n = ReadInt<std::size_t>(is, "series length");
  record.series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    record.series.push_back(ReadInt<std::int64_t>(is, "series value"));
  }
  return record;
}

}  // namespace

std::uint64_t HashCampaignConfig(const CampaignConfig& config) {
  // Canonical string over the result-defining fields only (see header:
  // execution knobs are excluded on purpose).
  std::ostringstream os;
  os << "v" << CampaignCheckpoint::kFormatVersion;
  os << "|devices";
  for (const std::string& name : config.devices) {
    os << ':' << name;
  }
  os << "|rows:" << config.rows_per_device;
  os << "|meas:" << config.measurements;
  os << "|patterns";
  for (const dram::DataPattern pattern : config.patterns) {
    os << ':' << static_cast<int>(pattern);
  }
  os << "|t_ons";
  for (const TOnChoice t_on : config.t_ons) {
    os << ':' << static_cast<int>(t_on);
  }
  os << "|temps";
  for (const Celsius temperature : config.temperatures) {
    os << ':' << DoubleToHex(temperature);
  }
  os << "|scan:" << config.scan_rows_per_region;
  os << "|seed:" << config.base_seed;
  os << "|rig:" << (config.use_thermal_rig ? 1 : 0);
  return HashLabel(0x5a6ec4a1, os.str());
}

void WriteCheckpoint(std::ostream& os,
                     const CampaignCheckpoint& checkpoint) {
  os << kMagic << ' ' << CampaignCheckpoint::kFormatVersion << '\n';
  os << "config " << std::hex << std::setw(16) << std::setfill('0')
     << checkpoint.config_hash << std::dec << '\n';
  os << "shards " << checkpoint.shards.size() << '\n';
  for (const CampaignCheckpoint::ShardEntry& entry : checkpoint.shards) {
    CheckToken(entry.status.device, "shard device name");
    os << "shard " << entry.index << ' ' << entry.status.device << ' '
       << DoubleToHex(entry.status.temperature) << ' '
       << static_cast<int>(entry.status.state) << ' '
       << entry.status.attempts << ' ' << entry.status.backoff_ticks
       << '\n';
    // Free-text field: keep it on its own line so tokens stay clean.
    os << "error " << entry.status.error << '\n';
    os << "records " << entry.records.size() << '\n';
    for (const SeriesRecord& record : entry.records) {
      WriteRecord(os, record);
    }
  }
  os << "end\n";
  os.flush();
  VRD_FATAL_IF(!os, "checkpoint: stream failed while writing");
}

CampaignCheckpoint ReadCheckpoint(std::istream& is) {
  Expect(is, kMagic);
  const auto version = ReadInt<std::uint32_t>(is, "format version");
  VRD_FATAL_IF(version != CampaignCheckpoint::kFormatVersion,
               "checkpoint: format version " + std::to_string(version) +
                   " does not match expected " +
                   std::to_string(CampaignCheckpoint::kFormatVersion));
  CampaignCheckpoint checkpoint;
  Expect(is, "config");
  {
    const std::string token = ReadToken(is, "config hash");
    std::istringstream hex(token);
    hex >> std::hex >> checkpoint.config_hash;
    VRD_FATAL_IF(hex.fail() || !hex.eof(),
                 "checkpoint: bad config hash '" + token + "'");
  }
  Expect(is, "shards");
  const auto shard_count = ReadInt<std::size_t>(is, "shard count");
  checkpoint.shards.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    Expect(is, "shard");
    CampaignCheckpoint::ShardEntry entry;
    entry.index = ReadInt<std::size_t>(is, "shard index");
    entry.status.device = ReadToken(is, "shard device");
    entry.status.temperature = ReadHexDouble(is, "shard temperature");
    entry.status.state =
        ReadEnum(is, "shard state", ShardState::kQuarantined);
    VRD_FATAL_IF(entry.status.state == ShardState::kQuarantined,
                 "checkpoint: quarantined shards are never checkpointed");
    entry.status.attempts = ReadInt<std::uint64_t>(is, "shard attempts");
    entry.status.backoff_ticks = ReadInt<Tick>(is, "shard backoff");
    entry.status.from_checkpoint = true;
    Expect(is, "error");
    is.ignore(1);  // the single space separating keyword and text
    std::getline(is, entry.status.error);
    Expect(is, "records");
    const auto record_count = ReadInt<std::size_t>(is, "record count");
    entry.records.reserve(record_count);
    for (std::size_t r = 0; r < record_count; ++r) {
      entry.records.push_back(ReadRecord(is));
    }
    checkpoint.shards.push_back(std::move(entry));
  }
  Expect(is, "end");
  std::sort(checkpoint.shards.begin(), checkpoint.shards.end(),
            [](const CampaignCheckpoint::ShardEntry& a,
               const CampaignCheckpoint::ShardEntry& b) {
              return a.index < b.index;
            });
  for (std::size_t s = 1; s < checkpoint.shards.size(); ++s) {
    VRD_FATAL_IF(
        checkpoint.shards[s].index == checkpoint.shards[s - 1].index,
        "checkpoint: duplicate shard index " +
            std::to_string(checkpoint.shards[s].index));
  }
  return checkpoint;
}

void SaveCheckpoint(const std::string& path,
                    const CampaignCheckpoint& checkpoint) {
  VRD_FATAL_IF(path.empty(), "checkpoint: empty path");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    VRD_FATAL_IF(!os, "checkpoint: cannot open '" + tmp + "' for writing");
    WriteCheckpoint(os, checkpoint);
    os.close();
    VRD_FATAL_IF(!os, "checkpoint: failed to finish writing '" + tmp + "'");
  }
  VRD_FATAL_IF(std::rename(tmp.c_str(), path.c_str()) != 0,
               "checkpoint: cannot rename '" + tmp + "' to '" + path + "'");
}

bool LoadCheckpoint(const std::string& path, CampaignCheckpoint* out) {
  VRD_ASSERT(out != nullptr);
  std::ifstream is(path);
  if (!is) {
    return false;  // nothing to resume
  }
  try {
    *out = ReadCheckpoint(is);
  } catch (const FatalError& e) {
    // Re-raise with the offending file named: the grammar-level
    // messages have no way to know which path they came from.
    throw FatalError("checkpoint '" + path + "': " + e.what());
  }
  return true;
}

bool LoadCheckpointFor(const std::string& path,
                       std::uint64_t expected_config_hash,
                       CampaignCheckpoint* out) {
  if (!LoadCheckpoint(path, out)) {
    return false;
  }
  if (out->config_hash != expected_config_hash) {
    std::ostringstream os;
    os << "checkpoint '" << path << "': config hash " << std::hex
       << std::setw(16) << std::setfill('0') << out->config_hash
       << " does not match the requested campaign's hash " << std::setw(16)
       << std::setfill('0') << expected_config_hash
       << "; it belongs to a different configuration";
    throw FatalError(os.str());
  }
  return true;
}

}  // namespace vrddram::core
