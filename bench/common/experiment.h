/**
 * @file
 * Declarative experiment registry for the figure/table reproductions.
 *
 * Each figure or table of the paper is one `ExperimentSpec`: a name,
 * a one-line description, the flag schema with defaults, an optional
 * campaign builder, and an analysis function that renders the tables
 * and CHECK lines. Specs live in the `bench/experiments/` sources and
 * self-register at static-initialization time; the `vrdrepro` driver
 * (bench/common/driver.h) is the only main() over them.
 *
 * The split between `build_campaign` and `analyze` is what lets the
 * driver share measurement work: it resolves the campaign through a
 * `core::CampaignCache` keyed by the result-defining config hash, so
 * experiments whose configs intend the same records (same devices,
 * rows, patterns, temperatures, seed, ...) execute one campaign and
 * fan their analyses out over the cached `CampaignResult`.
 */
#ifndef VRDDRAM_BENCH_COMMON_EXPERIMENT_H
#define VRDDRAM_BENCH_COMMON_EXPERIMENT_H

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "core/campaign.h"

namespace vrddram::bench {

/// Destination for everything an experiment reports: the stream that
/// replaces the old per-binary stdout, plus the parsed flags so
/// analysis knobs (iteration counts, CSV paths, margins) stay
/// reachable from Analyze.
struct Report {
  std::ostream& out;
  const Flags& flags;
};

struct ExperimentSpec {
  /// Registry key, e.g. "fig10_data_pattern" — the old standalone
  /// binary name without the "bench_" prefix.
  std::string name;

  /// One-line summary shown by `vrdrepro list`.
  std::string description;

  /// Every knob the experiment accepts. Campaign experiments build
  /// theirs with CampaignFlagSpecs().
  std::vector<FlagSpec> flags;

  /// Tiny-parameter invocation used by `vrdrepro run --smoke` and the
  /// ctest smoke entries ("--key=value" tokens).
  std::vector<std::string> smoke_args;

  /// Builds the campaign request from parsed flags. Experiments that
  /// measure nothing (catalog tables, single-device sweeps) leave
  /// this empty and receive an empty CampaignResult.
  std::function<core::CampaignConfig(const Flags&)> build_campaign;

  /// Renders the experiment's tables, figures, and CHECK lines from
  /// the (possibly cached) campaign result.
  std::function<void(const core::CampaignResult&, Report*)> analyze;
};

/**
 * The process-wide experiment registry. Specs register through
 * VRD_REGISTER_EXPERIMENT; lookups are by exact name and All() is
 * sorted by name, so `vrdrepro run --all` order is deterministic.
 */
class ExperimentRegistry {
 public:
  static ExperimentRegistry& Instance();

  /// Raises FatalError on a duplicate or empty name.
  void Register(ExperimentSpec spec);

  /// nullptr when no experiment has that name.
  const ExperimentSpec* Find(const std::string& name) const;

  /// All registered specs, sorted by name.
  std::vector<const ExperimentSpec*> All() const;

 private:
  std::vector<ExperimentSpec> specs_;
};

/// Registers the spec returned by `factory` (an `ExperimentSpec (*)()`)
/// at static-initialization time. Use at namespace scope in
/// bench/experiments/*.cc.
struct ExperimentRegistrar {
  explicit ExperimentRegistrar(ExperimentSpec (*factory)());
};

#define VRD_REGISTER_EXPERIMENT(factory)             \
  static const ::vrddram::bench::ExperimentRegistrar \
      vrd_experiment_registrar_##factory {           \
    (factory)                                        \
  }

/// The shared --threads flag (default 0 = hardware concurrency). Every
/// experiment that fans out on the shard executor declares it; the
/// reports are byte-identical at any value.
FlagSpec ThreadsFlagSpec();

/**
 * The flags that pick a row study's rows, in schema order: --devices
 * with default `devices` (left out when `devices` is empty, for a study
 * that fixes its own device set), --rows with default `rows`, the
 * study's per-row `count` flag, --seed and --scan.
 */
std::vector<FlagSpec> RowStudyFlagSpecs(const std::string& devices,
                                        const std::string& rows,
                                        FlagSpec count);

/**
 * Read the row-study flags into a config with the fields `devices`,
 * `rows_per_device`, `base_seed`, `scan_rows_per_region` and `threads`
 * (core::CampaignConfig and core::GuardbandConfig): --devices when the
 * schema declares it, --rows, --seed, --scan and --threads.
 */
template <typename Config>
void ApplyRowStudyFlags(const Flags& flags, Config* config) {
  if (flags.Declares("devices")) {
    config->devices = ResolveDevices(flags.GetString("devices"));
  }
  config->rows_per_device = static_cast<std::size_t>(flags.GetUint("rows"));
  config->base_seed = flags.GetUint("seed");
  config->scan_rows_per_region =
      static_cast<std::size_t>(flags.GetUint("scan"));
  config->threads = static_cast<std::size_t>(flags.GetUint("threads"));
}

/**
 * A campaign experiment's schema: RowStudyFlagSpecs with
 * --measurements as the count, then the experiment's own `extra`
 * flags, then the execution flags every campaign shares (--threads,
 * --checkpoint, --resume, --inject, --max_attempts).
 */
std::vector<FlagSpec> CampaignFlagSpecs(
    const std::string& devices, const std::string& rows,
    const std::vector<FlagSpec>& extra = {});

/**
 * The campaign the shared flags select: ApplyRowStudyFlags plus
 * --measurements and the execution flags: --threads (0 selects
 * hardware_concurrency, 1 forces the serial path; results are
 * bit-identical for every value), --checkpoint=FILE (persist completed
 * shards), --resume (restore shards from the checkpoint instead of
 * re-running them), --inject=SPEC (fault-injection plan, fi::FaultPlan
 * grammar) and --max_attempts=N (attempts per shard before
 * quarantine). The experiment then sets its own patterns, t_ons,
 * temperatures and use_thermal_rig.
 */
core::CampaignConfig CampaignConfigFromFlags(const Flags& flags);

}  // namespace vrddram::bench

#endif  // VRDDRAM_BENCH_COMMON_EXPERIMENT_H
