/**
 * @file
 * Seeded mutation fuzzing of the two grammars a user types: the typed
 * `--key=value` flags (bench::Flags) and the `--inject` fault spec
 * (fi::FaultPlan::Parse). Inputs are truncated, byte-flipped, or have
 * one number replaced by a huge, negative or non-finite one. Each must
 * either parse to what an independent reading of the text says, or
 * raise a FatalError; any other exception fails the test, and a crash
 * or an out-of-bounds access fails it under the asan/ubsan presets.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.h"
#include "common/error.h"
#include "common/faultinject.h"
#include "common/rng.h"

namespace vrddram {
namespace {

/// Truncation, byte flip, or one number replaced, drawn from `rng`.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string operator()(std::string text) {
    static const char* const kNumbers[] = {
        "18446744073709551615", "18446744073709551616", "4000000000000",
        "9223372036854775807",  "-9223372036854775808", "-1",
        "0",                    "99999999999999999999999999",
        "1e999",                "-0",
        "nan",                  "inf",
        "0x10",                 "1e-400",
        "+1",                   " 1"};
    switch (rng_.Next() % 3) {
      case 0:  // truncation
        text.resize(rng_.Next() % text.size());
        break;
      case 1: {  // byte flip
        const std::size_t at = rng_.Next() % text.size();
        text[at] = static_cast<char>(text[at] ^ (1 + rng_.Next() % 255));
        break;
      }
      default: {  // the next number replaced
        std::size_t at = rng_.Next() % text.size();
        while (at < text.size() && (text[at] < '0' || text[at] > '9')) {
          ++at;
        }
        std::size_t end = at;
        while (end < text.size() &&
               ((text[end] >= '0' && text[end] <= '9') || text[end] == '.' ||
                text[end] == 'e' || text[end] == '-')) {
          ++end;
        }
        text.replace(at, end - at,
                     kNumbers[rng_.Next() % std::size(kNumbers)]);
        break;
      }
    }
    return text;
  }

 private:
  Rng rng_;
};

/// `text` as a decimal integer below 2^64, read digit by digit;
/// nullopt for anything else.
std::optional<std::uint64_t> DecimalValue(const std::string& text) {
  if (text.empty()) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

/// Split a command line on spaces, dropping empty tokens.
std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t at = 0;
  while (at < line.size()) {
    const std::size_t space = line.find(' ', at);
    const std::size_t end = space == std::string::npos ? line.size() : space;
    if (end > at) {
      tokens.push_back(line.substr(at, end - at));
    }
    at = end + 1;
  }
  return tokens;
}

/// Run `parse`; false on a FatalError, which is the only rejection
/// allowed.
template <typename Parse>
bool Accepts(Parse parse) {
  try {
    parse();
  } catch (const FatalError&) {
    return false;
  }
  return true;
}

TEST(ParserFuzzTest, MutatedFlagsParseOrRaiseFatalError) {
  using bench::FlagSpec;
  using bench::Flags;
  const std::vector<FlagSpec> schema = {
      {"rows", "9", ""},
      {"ber", "7.62939453125e-05", ""},
      {"devices", "ddr4", ""},
      {"rig", "false", ""},
      {"threads", "1", ""}};
  const std::string original =
      "--rows=42 --ber=7.62939453125e-05 --devices=M1,S2 --rig=true "
      "--threads=8";
  Mutator mutate(0xf1a95);
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string line = mutate(original);
    SCOPED_TRACE("mutation " + std::to_string(i) + ": " + line);
    const std::vector<std::string> args = Tokens(line);

    // What the command line says, read independently: each token is
    // "--key" or "--key=value" with a declared key, and the last one
    // of a key wins.
    bool well_formed = true;
    std::vector<std::pair<std::string, std::string>> given;
    for (const std::string& arg : args) {
      const std::size_t eq = arg.find('=');
      const std::string key =
          arg.size() < 2 ? "" : arg.substr(2, eq == std::string::npos
                                                  ? std::string::npos
                                                  : eq - 2);
      bool declared = false;
      for (const FlagSpec& spec : schema) {
        declared = declared || spec.name == key;
      }
      well_formed = well_formed && arg.rfind("--", 0) == 0 && declared;
      given.emplace_back(
          key, eq == std::string::npos ? "true" : arg.substr(eq + 1));
    }

    std::optional<Flags> flags;
    if (!Accepts([&] { flags.emplace(args, schema); })) {
      EXPECT_FALSE(well_formed);
      ++rejected;
      continue;
    }
    ASSERT_TRUE(well_formed);
    for (const FlagSpec& spec : schema) {
      std::string text = spec.default_value;
      for (const auto& [key, value] : given) {
        if (key == spec.name) {
          text = value;
        }
      }
      ASSERT_EQ(flags->GetString(spec.name), text);

      // Each typed getter accepts exactly the text its grammar admits,
      // and returns what that text means.
      std::uint64_t uint_value = 0;
      const bool uint_ok =
          Accepts([&] { uint_value = flags->GetUint(spec.name); });
      const std::optional<std::uint64_t> decimal = DecimalValue(text);
      ASSERT_EQ(uint_ok, decimal.has_value());
      if (uint_ok) {
        EXPECT_EQ(uint_value, *decimal);
      }

      double double_value = 0.0;
      if (Accepts([&] { double_value = flags->GetDouble(spec.name); })) {
        ASSERT_TRUE(std::isfinite(double_value));
        char* end = nullptr;
        const double reference = std::strtod(text.c_str(), &end);
        EXPECT_EQ(end, text.c_str() + text.size());
        EXPECT_EQ(double_value, reference);
      }

      bool bool_value = false;
      const bool bool_ok =
          Accepts([&] { bool_value = flags->GetBool(spec.name); });
      ASSERT_EQ(bool_ok, text == "true" || text == "1" ||
                             text == "false" || text == "0");
      if (bool_ok) {
        EXPECT_EQ(bool_value, text == "true" || text == "1");
      }
    }
    ++accepted;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

/// `plan` written back in the spec grammar, every key spelled out.
std::string ToSpec(const fi::FaultPlan& plan) {
  std::string spec;
  for (const fi::SiteSpec& site : plan.sites()) {
    char probability[40];
    std::snprintf(probability, sizeof(probability), "%.17g",
                  site.probability);
    spec += site.site + ":p=" + probability +
            ",max=" + std::to_string(site.max_fires) +
            ",attempt_lt=" + std::to_string(site.attempt_lt);
    if (!site.match.empty()) {
      spec += ",match=" + site.match;
    }
    spec += ";";
  }
  return spec;
}

TEST(ParserFuzzTest, MutatedFaultSpecsParseOrRaiseFatalError) {
  const std::string original =
      "bender.thermal.settle:p=0.25,max=3,attempt_lt=2,match=M1@50;"
      "core.campaign.shard:p=1;dram.device.readout:max=12, p=0.5 ;"
      "core.profiler.noflip";
  ASSERT_EQ(fi::FaultPlan::Parse(original, 7).sites().size(), 4u);
  Mutator mutate(0xfa017);
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string spec = mutate(original);
    SCOPED_TRACE("mutation " + std::to_string(i) + ": " + spec);
    fi::FaultPlan plan;
    if (!Accepts([&] { plan = fi::FaultPlan::Parse(spec, 7); })) {
      ++rejected;
      continue;
    }
    ++accepted;
    for (const fi::SiteSpec& site : plan.sites()) {
      EXPECT_FALSE(site.site.empty());
      EXPECT_EQ(site.site.find_first_of(":;"), std::string::npos);
      EXPECT_TRUE(site.probability >= 0.0 && site.probability <= 1.0)
          << site.site << " p=" << site.probability;
    }
    // What was accepted means the same when written back out.
    const fi::FaultPlan again = fi::FaultPlan::Parse(ToSpec(plan), 7);
    ASSERT_EQ(again.sites().size(), plan.sites().size());
    for (std::size_t s = 0; s < plan.sites().size(); ++s) {
      const fi::SiteSpec& a = plan.sites()[s];
      const fi::SiteSpec& b = again.sites()[s];
      EXPECT_EQ(a.site, b.site);
      EXPECT_EQ(a.probability, b.probability);
      EXPECT_EQ(a.max_fires, b.max_fires);
      EXPECT_EQ(a.attempt_lt, b.attempt_lt);
      EXPECT_EQ(a.match, b.match);
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace vrddram
