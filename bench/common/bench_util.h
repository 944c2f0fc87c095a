/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses: flag
 * parsing, series collection shortcuts, box-plot row formatting, and
 * the paper-vs-measured check lines recorded in EXPERIMENTS.md.
 */
#ifndef VRDDRAM_BENCH_COMMON_BENCH_UTIL_H
#define VRDDRAM_BENCH_COMMON_BENCH_UTIL_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/table.h"
#include "core/campaign.h"
#include "core/min_rdt.h"
#include "core/rdt_profiler.h"
#include "core/series_analysis.h"
#include "stats/descriptive.h"
#include "vrd/chip_catalog.h"

namespace vrddram::bench {

/// One documented knob of an experiment: its flag name (without the
/// leading "--"), the textual default, and a one-line description.
struct FlagSpec {
  std::string name;
  std::string default_value;
  std::string help;
};

/**
 * Tiny --key=value flag parser. Every experiment documents its knobs
 * through a FlagSpec schema: construction rejects unknown flags with a
 * FatalError whose message embeds Describe(), so an abort always
 * prints the real schema, and a getter falls back to the schema's
 * default.
 *
 * Typed getters parse strictly: the whole value must be consumed, an
 * unsigned value takes no sign, out-of-range numbers are rejected, and
 * a bool is one of true/false/1/0. Anything else raises FatalError
 * naming the flag, the value, and the expected form.
 */
class Flags {
 public:
  /**
   * Schema-validating: `args` are raw "--key[=value]" tokens. A token
   * without "--", or a key absent from `schema`, raises FatalError
   * naming the offender and listing the schema via Describe().
   */
  Flags(const std::vector<std::string>& args,
        const std::vector<FlagSpec>& schema);

  /// The flag's value, or its FlagSpec default when absent. Raise
  /// FatalError when `key` is not in the schema — an undocumented knob
  /// is a bug in the experiment spec.
  std::uint64_t GetUint(const std::string& key) const;
  double GetDouble(const std::string& key) const;
  std::string GetString(const std::string& key) const;
  bool GetBool(const std::string& key) const;

  /// Whether the schema declares `key`.
  bool Declares(const std::string& key) const;

  /// Human-readable flag schema, one "--name=default  help" line per
  /// spec. Empty string for an empty schema.
  std::string Describe() const;
  static std::string Describe(const std::vector<FlagSpec>& schema);

 private:
  const FlagSpec& SpecFor(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<FlagSpec> schema_;
};

/// Resolve a device-set flag value: "all", "ddr4", "hbm2", or a
/// comma-separated list of catalog names. An unknown or repeated name,
/// or an empty list, raises FatalError naming `--<flag>` and the token.
std::vector<std::string> ResolveDevices(const std::string& spec,
                                        const std::string& flag = "devices");

/// Print the per-shard execution summary (ok/retried/quarantined
/// counts plus one line for each shard that did not run clean).
void PrintShardSummary(std::ostream& os,
                       const core::CampaignResult& result);

/// Per-manufacturer grouping shared by the figure benches: DDR4
/// records group under their manufacturer's display name, while the
/// HBM2 chips (all from Mfr. S) get their own "Mfr. S HBM2" bucket so
/// the two standards are never pooled.
std::string ManufacturerGroupName(const core::SeriesRecord& record);

/// One 100k-style single-row series: find a victim on the device per
/// Alg. 1 and measure it `measurements` times.
struct SingleRowSeries {
  dram::RowAddr row = 0;
  std::uint64_t rdt_guess = 0;
  std::vector<std::int64_t> series;
};

/// Runs Alg. 1 on one device (Checkered0, min tRAS, 80 degC - the §4
/// foundational setup). Returns false if no victim row qualifies.
bool CollectSingleRowSeries(const std::string& device_name,
                            std::size_t measurements,
                            std::uint64_t seed, SingleRowSeries* out);

/// One device's entry of AnalyzeSingleRowSeries: the victim row Alg. 1
/// found and the core::AnalyzeSeries result of its series.
struct SingleRowAnalysis {
  dram::RowAddr row = 0;
  core::SeriesAnalysis analysis;
};

/**
 * CollectSingleRowSeries + core::AnalyzeSeries for every device, one
 * device per shard on the shard executor, so no raw series outlives its
 * shard. Slot i holds device i's analysis, or nullopt when no victim row
 * qualifies; merging the slots in order gives the serial loop's bytes at
 * any `threads`.
 *
 * Results are memoized per process, keyed on (device, measurements,
 * seed): a call measures only the devices not analysed yet, so fig03,
 * fig04 and fig05 share one analysis per device. The memo is read and
 * written only on the calling thread, before and after the fan-out.
 */
std::vector<std::optional<SingleRowAnalysis>> AnalyzeSingleRowSeries(
    const std::vector<std::string>& devices, std::size_t measurements,
    std::uint64_t seed, std::size_t threads);

/// Empty AnalyzeSingleRowSeries's memo; the driver calls this when a
/// `run` starts, so every run measures cold.
void ClearSingleRowAnalyses();

/// Append one box-and-whiskers row (the labels, then min / Q1 / median
/// / Q3 / max / mean) to a table.
void AddBoxRow(TextTable& table, const std::vector<std::string>& labels,
               const stats::BoxStats& box, int precision = 0);

/**
 * The expected normalized minimum RDT of every record, grouped by
 * `key_of(record)`: slot i of a group holds N = settings.sample_sizes[i],
 * its values in record order. AnalyzeRowSeries throws on a record
 * without flips.
 */
template <typename KeyOf>
auto GroupNormMins(const core::CampaignResult& result,
                   const core::MinRdtSettings& settings, KeyOf key_of) {
  using Key = std::invoke_result_t<KeyOf, const core::SeriesRecord&>;
  std::map<Key, std::vector<std::vector<double>>> groups;
  for (const core::SeriesRecord& record : result.records) {
    const core::RowMinRdtResult mc =
        core::AnalyzeRowSeries(record.flips, settings);
    auto& per_n = groups[key_of(record)];
    per_n.resize(mc.per_n.size());
    for (std::size_t i = 0; i < mc.per_n.size(); ++i) {
      per_n[i].push_back(mc.per_n[i].expected_norm_min);
    }
  }
  return groups;
}

/// Append one "labels..., N, median, max, mean" row per sample size of
/// a GroupNormMins group, and return the median at N = 1 (NaN when
/// `settings` has no N = 1).
double AddNormMinRows(TextTable& table,
                      const std::vector<std::string>& labels,
                      const std::vector<std::vector<double>>& per_n,
                      const core::MinRdtSettings& settings);

/// Paper-vs-measured check line, greppable for EXPERIMENTS.md:
/// "CHECK <name>: paper=<paper> measured=<measured>".
void PrintCheck(std::ostream& os, const std::string& name,
                const std::string& paper, const std::string& measured);
void PrintCheck(std::ostream& os, const std::string& name, double paper,
                double measured, int precision = 3);
void PrintCheck(std::ostream& os, const std::string& name,
                const std::string& paper, double measured,
                int precision = 3);

/// Box stats over a vector<double>: sorts a copy once, mean in the
/// vector's own order.
stats::BoxStats Box(const std::vector<double>& xs);

}  // namespace vrddram::bench

#endif  // VRDDRAM_BENCH_COMMON_BENCH_UTIL_H
