/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * Real characterization rigs lose work to flaky hardware: a DRAM
 * Bender command times out, a thermocouple drops off the PID loop, a
 * readout pin sticks, a measurement spuriously reports no flip. This
 * engine lets tests and campaigns reproduce those failures *exactly*:
 *
 *  - A FaultPlan is a registry of named sites parsed from a compact
 *    spec string (the `--inject=` bench flag):
 *
 *        site[:key=value[,key=value...]][;site2...]
 *
 *    with keys `p` (per-evaluation fire probability, default 1),
 *    `max` (fire budget per scope stream, default unlimited),
 *    `match` (fire only in scopes whose label contains this
 *    substring), and `attempt_lt` (fire only while the scope's
 *    attempt ordinal is below this — the knob that makes "fails once,
 *    succeeds on retry" schedules deterministic).
 *
 *  - A FaultScope installs the plan for the current thread for one
 *    unit of work (e.g. one campaign shard attempt). Each (site,
 *    scope label, attempt) triple owns its own seeded RNG stream, so
 *    a given (site, seed) schedule is reproducible at any
 *    `--threads`: worker count and completion order cannot leak into
 *    which evaluations fire.
 *
 *  - Instrumented code asks `fi::ShouldFire("layer.site")` at the
 *    point where the real rig fails. With no active scope (the
 *    default everywhere outside resilience tests) the query is a
 *    thread-local null check and nothing ever fires. kWiredSites
 *    lists every site the code evaluates (see docs/API.md).
 */
#ifndef VRDDRAM_COMMON_FAULTINJECT_H
#define VRDDRAM_COMMON_FAULTINJECT_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace vrddram::fi {

/// Every site instrumented code evaluates. A plan naming any other
/// site would never fire, so campaigns reject it.
inline constexpr std::array<std::string_view, 5> kWiredSites = {
    "bender.thermal.sensor",  // PID thermocouple dropout (TransientError)
    "bender.thermal.settle",  // settle timeout (TransientError)
    "dram.device.readout",    // stuck-at-1 bit in ReadRow data
    "core.profiler.noflip",   // measurement spuriously returns kNoFlip
    "core.campaign.shard",    // shard fails wholesale (TransientError)
};

/// Configuration of one named fault site within a plan.
struct SiteSpec {
  std::string site;                  ///< e.g. "bender.thermal.settle"
  double probability = 1.0;          ///< per-evaluation fire probability
  std::uint64_t max_fires = ~0ull;   ///< budget per (scope, attempt) stream
  std::uint64_t attempt_lt = ~0ull;  ///< fire only when attempt < this
  std::string match;                 ///< scope-label substring filter
};

/**
 * Immutable registry of fault sites plus the seed all site streams
 * derive from. Parsed once (from config/flags) before work is
 * dispatched; shared read-only by every worker thread.
 */
class FaultPlan {
 public:
  FaultPlan() = default;

  /**
   * Parse a spec string (grammar above). An empty spec yields an
   * empty (never-firing) plan; malformed input throws FatalError
   * naming the offending fragment.
   */
  static FaultPlan Parse(std::string_view spec, std::uint64_t seed);

  bool empty() const { return sites_.empty(); }
  std::uint64_t seed() const { return seed_; }
  const std::vector<SiteSpec>& sites() const { return sites_; }
  /// nullptr when the plan has no spec for `site`.
  const SiteSpec* Find(std::string_view site) const;

 private:
  std::uint64_t seed_ = 0;
  std::vector<SiteSpec> sites_;
};

/**
 * RAII activation of a plan for the current thread, labelled with the
 * unit of work (e.g. "campaign/M1@50") and an attempt ordinal.
 * Scopes nest; the innermost active scope answers ShouldFire. The
 * scope owns the per-site RNG streams, so two scopes with the same
 * (plan, label, attempt) replay the identical fire schedule.
 */
class FaultScope {
 public:
  FaultScope(const FaultPlan& plan, std::string label,
             std::uint64_t attempt = 0);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  const std::string& label() const { return label_; }
  std::uint64_t attempt() const { return attempt_; }

  /// False when the plan names no site, so no evaluation can fire.
  bool armed() const { return !plan_->empty(); }

  /// One evaluation of `site` in this scope; true = inject the fault.
  bool Fire(std::string_view site);

 private:
  struct Stream {
    Rng rng;
    std::uint64_t fires = 0;
    explicit Stream(std::uint64_t seed) : rng(seed) {}
  };

  const FaultPlan* plan_;
  std::string label_;
  std::uint64_t attempt_;
  /// Ordered map: deterministic teardown and no hash-order effects.
  std::map<std::string, Stream, std::less<>> streams_;
  FaultScope* previous_;
};

/**
 * Ask the innermost active scope of the calling thread whether this
 * evaluation of `site` injects its fault. Always false when no scope
 * is active — instrumented code needs no configuration to run clean —
 * and, without a lookup, when the active scope's plan is empty (every
 * campaign measurement asks).
 */
bool ShouldFire(std::string_view site);

}  // namespace vrddram::fi

#endif  // VRDDRAM_COMMON_FAULTINJECT_H
