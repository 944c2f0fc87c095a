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

/// Seed of the payload checksum (HashLabel over the payload bytes).
constexpr std::uint64_t kChecksumSeed = 0x6b0e5c3a9d2f4711;

/// Largest RDT value a record may hold: far above any sweep (the
/// profiler gives up on rows that do not flip below 400,000 hammers),
/// and small enough that the margin and moment arithmetic on runs
/// cannot overflow.
constexpr std::int64_t kMaxStoredRdt = std::int64_t{1} << 40;

/// The fewest bytes one shard entry, one record and one run take in the
/// file; a count larger than the rest of the file could hold is
/// corrupt, and is rejected before anything is reserved for it.
constexpr std::size_t kMinShardBytes = 40;
constexpr std::size_t kMinRecordBytes = 32;
constexpr std::size_t kMinRunBytes = 4;

std::string Hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

/// Doubles round-trip as bit-cast hex so restored values are exact.
std::string DoubleToHex(double value) {
  return Hex(std::bit_cast<std::uint64_t>(value));
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

std::string ReadToken(std::istream& is, const char* what) {
  std::string token;
  is >> token;
  VRD_FATAL_IF(is.fail(),
               std::string("checkpoint: missing field: ") + what);
  return token;
}

std::uint64_t ReadHex(std::istream& is, const char* what) {
  const std::string token = ReadToken(is, what);
  std::uint64_t value = 0;
  std::istringstream hex(token);
  hex >> std::hex >> value;
  VRD_FATAL_IF(hex.fail() || !hex.eof(), std::string("checkpoint: bad ") +
                                             what + " '" + token + "'");
  return value;
}

double ReadHexDouble(std::istream& is, const char* what) {
  return std::bit_cast<double>(ReadHex(is, what));
}

/// A count of items that each take at least `min_bytes` of the
/// `size`-byte text `is` reads.
std::size_t ReadCount(std::istream& is, const char* what,
                      std::size_t min_bytes, std::size_t size) {
  const auto count = ReadInt<std::size_t>(is, what);
  const std::streamoff at = is.tellg();  // -1 at the end of the text
  const std::size_t remaining =
      at < 0 ? 0 : size - static_cast<std::size_t>(at);
  VRD_FATAL_IF(count > remaining / min_bytes,
               std::string("checkpoint: ") + what + " " +
                   std::to_string(count) + " exceeds what the " +
                   std::to_string(remaining) + " remaining bytes can hold");
  return count;
}

void WriteRecord(std::ostream& os, const SeriesRecord& record) {
  const SortedFlips& flips = record.flips;
  os << "record " << record.device << ' '
     << static_cast<int>(record.mfr) << ' '
     << static_cast<int>(record.standard) << ' ' << record.density_gbit
     << ' ' << static_cast<int>(record.die_rev) << ' ' << record.row
     << ' ' << static_cast<int>(record.pattern) << ' '
     << static_cast<int>(record.t_on) << ' '
     << DoubleToHex(record.temperature) << ' ' << record.rdt_guess << ' '
     << flips.measurements() << ' ' << flips.no_flips << ' '
     << flips.run_values.size() << '\n';
  for (std::size_t j = 0; j < flips.run_values.size(); ++j) {
    os << (j == 0 ? "" : " ") << flips.run_values[j] << ' '
       << flips.run_counts[j];
  }
  os << '\n';
}

SeriesRecord ReadRecord(std::istream& is, std::size_t size) {
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
  const auto measurements = ReadInt<std::size_t>(is, "measurements");
  SortedFlips& flips = record.flips;
  flips.no_flips = ReadInt<std::size_t>(is, "no-flip count");
  VRD_FATAL_IF(flips.no_flips > measurements,
               "checkpoint: no-flip count " +
                   std::to_string(flips.no_flips) + " exceeds the " +
                   std::to_string(measurements) + " measurements");
  const std::size_t runs = ReadCount(is, "runs", kMinRunBytes, size);
  VRD_FATAL_IF(runs > measurements,
               "checkpoint: runs " + std::to_string(runs) +
                   " exceeds the " + std::to_string(measurements) +
                   " measurements");
  flips.run_values.reserve(runs);
  flips.run_counts.reserve(runs);
  // Each count is checked against the flipping measurements still
  // unaccounted for, so the sum can neither overflow nor miss them.
  const std::size_t flipping = measurements - flips.no_flips;
  for (std::size_t j = 0; j < runs; ++j) {
    const auto value = ReadInt<std::int64_t>(is, "run value");
    VRD_FATAL_IF(value < 0 || value > kMaxStoredRdt ||
                     (j != 0 && value <= flips.run_values.back()),
                 "checkpoint: run value " + std::to_string(value) +
                     " is negative, too large or not ascending");
    const auto count = ReadInt<std::size_t>(is, "run count");
    VRD_FATAL_IF(count == 0 || count > flipping - flips.size,
                 "checkpoint: run count " + std::to_string(count) +
                     " is zero or exceeds the series' " +
                     std::to_string(flipping) +
                     " flipping measurements");
    flips.run_values.push_back(value);
    flips.run_counts.push_back(count);
    flips.size += count;
  }
  VRD_FATAL_IF(flips.size != flipping,
               "checkpoint: run counts sum to " +
                   std::to_string(flips.size) + ", expected " +
                   std::to_string(flipping) + " (" +
                   std::to_string(measurements) + " measurements, " +
                   std::to_string(flips.no_flips) + " no-flips)");
  return record;
}

/// Everything below the checksum line.
void WritePayload(std::ostream& os, const CampaignCheckpoint& checkpoint) {
  os << "config " << Hex(checkpoint.config_hash) << '\n';
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

std::uint64_t CheckpointChecksum(std::string_view payload) {
  return HashLabel(kChecksumSeed, payload);
}

void WriteCheckpoint(std::ostream& os,
                     const CampaignCheckpoint& checkpoint) {
  std::ostringstream payload;
  WritePayload(payload, checkpoint);
  const std::string text = std::move(payload).str();
  os << kMagic << ' ' << CampaignCheckpoint::kFormatVersion << '\n';
  os << "checksum " << Hex(CheckpointChecksum(text)) << '\n' << text;
  os.flush();
  VRD_FATAL_IF(!os, "checkpoint: stream failed while writing");
}

CampaignCheckpoint ReadCheckpoint(std::istream& stream) {
  // The whole file is read first: the checksum covers the payload, and
  // the counts are bounded by the bytes left in it.
  std::ostringstream all;
  all << stream.rdbuf();
  const std::string text = std::move(all).str();
  std::istringstream is(text);
  Expect(is, kMagic);
  const auto version = ReadInt<std::uint32_t>(is, "format version");
  VRD_FATAL_IF(version != CampaignCheckpoint::kFormatVersion,
               "checkpoint: format version " + std::to_string(version) +
                   " does not match expected " +
                   std::to_string(CampaignCheckpoint::kFormatVersion));
  Expect(is, "checksum");
  const std::uint64_t stored = ReadHex(is, "checksum");
  VRD_FATAL_IF(is.get() != '\n',
               "checkpoint: expected a line break after the checksum");
  const std::uint64_t actual = CheckpointChecksum(
      std::string_view(text).substr(static_cast<std::size_t>(is.tellg())));
  if (actual != stored) {
    throw CheckpointChecksumError(
        "checkpoint: payload checksum " + Hex(actual) +
        " does not match the stored " + Hex(stored) +
        "; the file is corrupt or truncated");
  }
  CampaignCheckpoint checkpoint;
  Expect(is, "config");
  checkpoint.config_hash = ReadHex(is, "config hash");
  Expect(is, "shards");
  const std::size_t shard_count =
      ReadCount(is, "shard count", kMinShardBytes, text.size());
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
    const std::size_t record_count =
        ReadCount(is, "record count", kMinRecordBytes, text.size());
    entry.records.reserve(record_count);
    for (std::size_t r = 0; r < record_count; ++r) {
      entry.records.push_back(ReadRecord(is, text.size()));
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
  // Re-raise with the offending file named: the grammar-level messages
  // have no way to know which path they came from.
  try {
    *out = ReadCheckpoint(is);
  } catch (const CheckpointChecksumError& e) {
    throw CheckpointChecksumError("checkpoint '" + path + "': " + e.what());
  } catch (const FatalError& e) {
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
