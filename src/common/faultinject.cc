#include "common/faultinject.h"

#include <charconv>
#include <utility>

#include "common/error.h"

namespace vrddram::fi {
namespace {

/// Innermost active scope of the calling thread; nullptr = clean run.
thread_local FaultScope* g_active_scope = nullptr;

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

double ParseProbability(std::string_view value, std::string_view fragment) {
  double p = 0.0;
  auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), p);
  // Written as a range test that NaN fails: from_chars accepts "nan".
  VRD_FATAL_IF(ec != std::errc{} || ptr != value.data() + value.size() ||
                   !(p >= 0.0 && p <= 1.0),
               "fault spec: bad probability in '" + std::string(fragment) +
                   "' (want a number in [0, 1])");
  return p;
}

std::uint64_t ParseCount(std::string_view value, std::string_view fragment) {
  std::uint64_t n = 0;
  auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), n);
  VRD_FATAL_IF(ec != std::errc{} || ptr != value.data() + value.size(),
               "fault spec: bad count in '" + std::string(fragment) +
                   "' (want a non-negative integer)");
  return n;
}

SiteSpec ParseSite(std::string_view fragment) {
  SiteSpec spec;
  std::string_view rest = fragment;
  const std::size_t colon = rest.find(':');
  spec.site = std::string(Trim(rest.substr(0, colon)));
  VRD_FATAL_IF(spec.site.empty(),
               "fault spec: empty site name in '" + std::string(fragment) + "'");
  if (colon == std::string_view::npos) {
    return spec;
  }
  rest.remove_prefix(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = Trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (pair.empty()) {
      continue;
    }
    const std::size_t eq = pair.find('=');
    VRD_FATAL_IF(eq == std::string_view::npos,
                 "fault spec: expected key=value, got '" + std::string(pair) +
                     "' in '" + std::string(fragment) + "'");
    const std::string_view key = Trim(pair.substr(0, eq));
    const std::string_view value = Trim(pair.substr(eq + 1));
    if (key == "p") {
      spec.probability = ParseProbability(value, fragment);
    } else if (key == "max") {
      spec.max_fires = ParseCount(value, fragment);
    } else if (key == "attempt_lt") {
      spec.attempt_lt = ParseCount(value, fragment);
    } else if (key == "match") {
      spec.match = std::string(value);
    } else {
      VRD_FATAL_IF(true, "fault spec: unknown key '" + std::string(key) +
                             "' in '" + std::string(fragment) + "'");
    }
  }
  return spec;
}

}  // namespace

FaultPlan FaultPlan::Parse(std::string_view spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed_ = seed;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view fragment = Trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (fragment.empty()) {
      continue;
    }
    SiteSpec site = ParseSite(fragment);
    for (const SiteSpec& existing : plan.sites_) {
      VRD_FATAL_IF(existing.site == site.site,
                   "fault spec: duplicate site '" + site.site + "'");
    }
    plan.sites_.push_back(std::move(site));
  }
  return plan;
}

const SiteSpec* FaultPlan::Find(std::string_view site) const {
  for (const SiteSpec& spec : sites_) {
    if (spec.site == site) {
      return &spec;
    }
  }
  return nullptr;
}

FaultScope::FaultScope(const FaultPlan& plan, std::string label,
                       std::uint64_t attempt)
    : plan_(&plan),
      label_(std::move(label)),
      attempt_(attempt),
      previous_(g_active_scope) {
  g_active_scope = this;
}

FaultScope::~FaultScope() { g_active_scope = previous_; }

bool FaultScope::Fire(std::string_view site) {
  const SiteSpec* spec = plan_->Find(site);
  if (spec == nullptr) {
    return false;
  }
  if (attempt_ >= spec->attempt_lt) {
    return false;
  }
  if (!spec->match.empty() && label_.find(spec->match) == std::string::npos) {
    return false;
  }
  auto it = streams_.find(site);
  if (it == streams_.end()) {
    // The stream seed depends only on (plan seed, site, scope label,
    // attempt): worker count and completion order cannot shift it.
    const std::uint64_t stream_seed =
        MixSeed(plan_->seed(), HashLabel(plan_->seed(), spec->site),
                HashLabel(plan_->seed(), label_), attempt_);
    it = streams_.emplace(std::string(site), Stream(stream_seed)).first;
  }
  Stream& stream = it->second;
  if (stream.fires >= spec->max_fires) {
    return false;
  }
  // p >= 1 fires unconditionally without consuming a draw, so "always
  // fail" specs do not depend on the Bernoulli stream at all.
  const bool fire =
      spec->probability >= 1.0 || stream.rng.NextBernoulli(spec->probability);
  if (fire) {
    ++stream.fires;
  }
  return fire;
}

bool ShouldFire(std::string_view site) {
  FaultScope* scope = g_active_scope;
  return scope != nullptr && scope->armed() && scope->Fire(site);
}

}  // namespace vrddram::fi
