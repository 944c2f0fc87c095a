/**
 * @file
 * The v1 rule families: banned-api, unordered-iteration,
 * rng-discipline, catch-all-swallow, campaign-discipline,
 * kernel-allocation (scope-aware since v2), and header-hygiene.
 */
#include <algorithm>
#include <cctype>

#include "rules.h"

namespace vrdlint {

bool IsHeaderPath(std::string_view path) {
  return path.ends_with(".h") || path.ends_with(".hh") ||
         path.ends_with(".hpp");
}

bool RuleSuppressedForPath(const Config& config, std::string_view rule,
                           std::string_view path) {
  const auto it = config.allow_paths.find(std::string(rule));
  if (it == config.allow_paths.end()) {
    return false;
  }
  for (const std::string& fragment : it->second) {
    if (path.find(fragment) != std::string_view::npos) {
      return true;
    }
  }
  return false;
}

namespace {

/// A seed expression: empty, pure literal arithmetic, seed-named, or
/// rooted in a registered seed-call (MixSeed/HashLabel/... + config).
bool IsSeedExpression(std::string_view args, const Config& config) {
  const std::string trimmed = Trim(args);
  if (trimmed.empty()) {
    return true;
  }
  if (ToLower(trimmed).find("seed") != std::string::npos) {
    return true;
  }
  for (const std::string& call : config.seed_calls) {
    if (ContainsCall(trimmed, call)) {
      return true;
    }
  }
  bool has_digit = false;
  for (const char c : trimmed) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      has_digit = true;
    }
    if (IsIdentChar(c) || std::isspace(static_cast<unsigned char>(c)) ||
        std::string_view("^|&+-*~%()<>,'").find(c) !=
            std::string_view::npos) {
      continue;
    }
    return false;
  }
  if (!has_digit) {
    return false;
  }
  // "Pure literal arithmetic": digit-led tokens (0x1234ull) and
  // operators only; any identifier (which starts with a letter or
  // underscore) disqualifies.
  std::size_t i = 0;
  while (i < trimmed.size()) {
    if (std::isdigit(static_cast<unsigned char>(trimmed[i]))) {
      while (i < trimmed.size() &&
             (IsIdentChar(trimmed[i]) || trimmed[i] == '\'')) {
        ++i;
      }
      continue;
    }
    if (IsIdentStart(trimmed[i])) {
      return false;
    }
    ++i;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Rule: banned-api
// ---------------------------------------------------------------------------

struct BannedPattern {
  const char* needle;       // substring or word to search
  bool word;                // match with identifier boundaries
  bool call;                // require a following '('
  const char* allow_token;  // extra allow() token besides the rule name
  const char* message;
};

constexpr BannedPattern kBannedPatterns[] = {
    {"random_device", true, false, nullptr,
     "std::random_device is nondeterministic; construct vrddram::Rng "
     "from a seed expression"},
    {"srand", true, true, nullptr,
     "srand() is banned; vrddram::Rng streams are seeded explicitly"},
    {"rand", true, true, nullptr,
     "rand() is banned; draw from a seeded vrddram::Rng stream"},
    {"time", true, true, nullptr,
     "time() is banned in result-producing code; use simulated Ticks "
     "(Device::Now) or common/telemetry.h"},
    {"steady_clock::now", false, false, "wall-clock",
     "wall-clock read outside telemetry; use common/telemetry.h "
     "Stopwatch or annotate with // vrdlint: allow(wall-clock)"},
    {"system_clock::now", false, false, "wall-clock",
     "wall-clock read outside telemetry; use common/telemetry.h "
     "Stopwatch or annotate with // vrdlint: allow(wall-clock)"},
    {"high_resolution_clock::now", false, false, "wall-clock",
     "wall-clock read outside telemetry; use common/telemetry.h "
     "Stopwatch or annotate with // vrdlint: allow(wall-clock)"},
};

void CheckBannedApi(const std::string& path, const FileView& view,
                    const Config& config,
                    std::vector<Diagnostic>* diagnostics) {
  if (RuleSuppressedForPath(config, "banned-api", path)) {
    return;
  }
  for (const BannedPattern& pattern : kBannedPatterns) {
    const std::string_view needle = pattern.needle;
    std::size_t pos = 0;
    while ((pos = view.flat.find(needle, pos)) != std::string::npos) {
      const std::size_t here = pos;
      pos += needle.size();
      if (pattern.word && !IsWordAt(view.flat, here, needle)) {
        continue;
      }
      if (pattern.call) {
        const std::size_t after = SkipSpace(view.flat, here + needle.size());
        if (after >= view.flat.size() || view.flat[after] != '(') {
          continue;
        }
      }
      const std::size_t line = view.LineOf(here);
      if (pattern.allow_token != nullptr
              ? view.Allowed(line, {"banned-api", pattern.allow_token})
              : view.Allowed(line, {"banned-api"})) {
        continue;
      }
      diagnostics->push_back(
          Diagnostic{path, line, "banned-api", pattern.message});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iteration
// ---------------------------------------------------------------------------

constexpr std::string_view kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

void CheckUnorderedIteration(const std::string& path, const FileView& view,
                             const Config& config,
                             const std::vector<std::string>& extra_names,
                             std::vector<Diagnostic>* diagnostics) {
  if (RuleSuppressedForPath(config, "unordered-iteration", path)) {
    return;
  }
  std::vector<std::string> names = CollectUnorderedNames(view);
  names.insert(names.end(), extra_names.begin(), extra_names.end());
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());

  const std::string_view flat = view.flat;
  std::size_t pos = 0;
  while ((pos = FindWord(flat, "for", pos)) != std::string_view::npos) {
    const std::size_t kw = pos;
    pos += 3;
    const std::size_t open = SkipSpace(flat, kw + 3);
    if (open >= flat.size() || flat[open] != '(') {
      continue;
    }
    const std::size_t close = MatchBracket(flat, open, '(', ')');
    if (close == std::string_view::npos) {
      continue;
    }
    // Top-level ':' that is not part of '::' marks a range-for.
    std::size_t colon = std::string_view::npos;
    int depth = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      const char c = flat[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') {
        ++depth;
      } else if (c == ')' || c == ']' || c == '}' || c == '>') {
        --depth;
      } else if (c == ':' && depth == 0) {
        const bool prev_colon = i > 0 && flat[i - 1] == ':';
        const bool next_colon = i + 1 < close && flat[i + 1] == ':';
        if (!prev_colon && !next_colon) {
          colon = i;
          break;
        }
      }
    }
    if (colon == std::string_view::npos) {
      continue;
    }
    const std::string_view range = flat.substr(colon + 1, close - colon - 1);
    bool laundered = false;
    for (const std::string& call : config.ordering_calls) {
      if (ContainsCall(range, call)) {
        laundered = true;
        break;
      }
    }
    if (laundered) {
      continue;
    }
    std::string offender;
    if (range.find("unordered_") != std::string_view::npos) {
      offender = "an unordered container expression";
    } else {
      for (const std::string& name : names) {
        if (ContainsWord(range, name)) {
          offender = "'" + name + "'";
          break;
        }
      }
    }
    if (offender.empty()) {
      continue;
    }
    const std::size_t line = view.LineOf(kw);
    if (view.Allowed(line, {"unordered-iteration"})) {
      continue;
    }
    diagnostics->push_back(Diagnostic{
        path, line, "unordered-iteration",
        "range-for over " + offender +
            ": hash order leaks into results; iterate a SortedByKey() "
            "snapshot or annotate with "
            "// vrdlint: allow(unordered-iteration)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: rng-discipline
// ---------------------------------------------------------------------------

/// Heuristic: constructor arguments are value expressions; two
/// adjacent bare identifiers ("std::uint64_t seed") mean we are
/// looking at a function parameter list, not a construction.
bool LooksLikeParameterList(std::string_view args) {
  std::size_t i = 0;
  while (i < args.size()) {
    if (!IsIdentStart(args[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < args.size() && IsIdentChar(args[end])) {
      ++end;
    }
    std::size_t next = SkipSpace(args, end);
    if (next > end && next < args.size() && IsIdentStart(args[next])) {
      return true;
    }
    i = end + 1;
  }
  return false;
}

/// Check the arguments of every Rng construction.
void CheckRngConstruction(const std::string& path, const FileView& view,
                          const Config& config,
                          std::vector<Diagnostic>* diagnostics) {
  const std::string_view flat = view.flat;
  std::size_t pos = 0;
  while ((pos = FindWord(flat, "Rng", pos)) != std::string_view::npos) {
    const std::size_t here = pos;
    pos += 3;
    // Template arguments (vector<Rng>) fall out naturally: the token
    // after them is '>' or ',', which no branch below accepts.
    const std::string_view prev = PreviousWord(flat, here);
    if (prev == "class" || prev == "struct" || prev == "typename" ||
        prev == "using" || prev == "friend") {
      continue;
    }
    std::size_t p = SkipSpace(flat, here + 3);
    if (p >= flat.size()) {
      continue;
    }
    if (flat[p] == ':') {
      continue;  // Rng::member
    }
    std::string args;
    std::size_t args_pos = here;
    if (flat[p] == '(') {
      // Temporary: Rng(<args>)
      const std::size_t close = MatchBracket(flat, p, '(', ')');
      if (close == std::string_view::npos) {
        continue;
      }
      args = std::string(flat.substr(p + 1, close - p - 1));
      args_pos = p;
    } else if (flat[p] == '&' || IsIdentStart(flat[p])) {
      if (flat[p] == '&') {
        p = SkipSpace(flat, p + 1);
      }
      if (p >= flat.size() || !IsIdentStart(flat[p])) {
        continue;
      }
      std::size_t end = p;
      while (end < flat.size() && IsIdentChar(flat[end])) {
        ++end;
      }
      const std::size_t after = SkipSpace(flat, end);
      if (after + 1 < flat.size() && flat[after] == ':' &&
          flat[after + 1] == ':') {
        continue;  // qualified definition: Rng Stream::Make(...)
      }
      if (after < flat.size() && (flat[after] == '(' || flat[after] == '{')) {
        const char open_char = flat[after];
        const char close_char = open_char == '(' ? ')' : '}';
        const std::size_t close =
            MatchBracket(flat, after, open_char, close_char);
        if (close == std::string_view::npos) {
          continue;
        }
        args = std::string(flat.substr(after + 1, close - after - 1));
        args_pos = after;
        if (LooksLikeParameterList(args)) {
          continue;  // function declaration returning Rng, not a decl
        }
        if (open_char == '{' && SkipSpace(args, 0) == args.size()) {
          continue;  // empty brace init: default seed
        }
      } else {
        continue;  // plain declaration or reference bind, default seed
      }
    } else {
      continue;
    }
    if (LooksLikeParameterList(args)) {
      continue;  // e.g. `explicit Rng(std::uint64_t seed = ...)`
    }
    if (!IsSeedExpression(args, config)) {
      const std::size_t line = view.LineOf(args_pos);
      if (!view.Allowed(line, {"rng-discipline"})) {
        diagnostics->push_back(Diagnostic{
            path, line, "rng-discipline",
            "Rng constructed from a non-seed expression (" + Trim(args) +
                "); derive the seed via MixSeed/HashLabel or a *seed* "
                "value so the stream is reproducible"});
      }
    }
  }
}

/// Constructor-initializer discipline: an identifier that is
/// rng-named and member-shaped (`rng_`, `powerup_rng_`) initialized
/// with non-seed arguments. The declared type lives in the header, so
/// this is name-convention-based — which the codebase follows.
void CheckRngMemberInit(const std::string& path, const FileView& view,
                        const Config& config,
                        std::vector<Diagnostic>* diagnostics) {
  const std::string_view flat = view.flat;
  std::size_t i = 0;
  while (i < flat.size()) {
    if (!IsIdentStart(flat[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < flat.size() && IsIdentChar(flat[end])) {
      ++end;
    }
    const std::string word(flat.substr(i, end - i));
    const std::size_t start = i;
    i = end;
    if (word.size() < 4 || word.back() != '_' ||
        ToLower(word).find("rng") == std::string::npos) {
      continue;
    }
    const std::size_t open = SkipSpace(flat, end);
    if (open >= flat.size() || (flat[open] != '(' && flat[open] != '{')) {
      continue;
    }
    const char close_char = flat[open] == '(' ? ')' : '}';
    const std::size_t close =
        MatchBracket(flat, open, flat[open], close_char);
    if (close == std::string_view::npos) {
      continue;
    }
    const std::string args(flat.substr(open + 1, close - open - 1));
    if (LooksLikeParameterList(args) || IsSeedExpression(args, config)) {
      continue;
    }
    const std::size_t line = view.LineOf(start);
    if (view.Allowed(line, {"rng-discipline"})) {
      continue;
    }
    diagnostics->push_back(Diagnostic{
        path, line, "rng-discipline",
        "Rng member '" + word + "' initialized from a non-seed "
        "expression (" + Trim(args) + "); derive the seed via MixSeed/"
        "HashLabel or a *seed* value so the stream is reproducible"});
  }
}

// ---------------------------------------------------------------------------
// Rule: catch-all-swallow
// ---------------------------------------------------------------------------

/// Body constructs that count as preserving the caught exception:
/// rethrowing (any `throw`), capturing it (`std::current_exception`),
/// or converting it into a typed vrddram error.
constexpr std::string_view kPreservingWords[] = {
    "throw",         "TransientError", "FatalError",
    "PanicError",    "ThrowFatal",     "ThrowPanic",
    "VRD_FATAL_IF",  "VRD_ASSERT",     "VRD_ASSERT_MSG",
};

bool BodyPreservesException(std::string_view body) {
  for (const std::string_view word : kPreservingWords) {
    if (ContainsWord(body, word)) {
      return true;
    }
  }
  return ContainsCall(body, "current_exception");
}

/// A handler is a swallow candidate when it catches everything:
/// `catch (...)` or any `std::exception&` spelling.
bool IsCatchAllParam(std::string_view params) {
  const std::string trimmed = Trim(params);
  if (trimmed.find("...") != std::string::npos) {
    return true;
  }
  return ContainsWord(trimmed, "exception");
}

void CheckCatchAllSwallow(const std::string& path, const FileView& view,
                          const Config& config,
                          std::vector<Diagnostic>* diagnostics) {
  if (RuleSuppressedForPath(config, "catch-all-swallow", path)) {
    return;
  }
  const std::string_view flat = view.flat;
  std::size_t pos = 0;
  while ((pos = FindWord(flat, "catch", pos)) != std::string_view::npos) {
    const std::size_t kw = pos;
    pos += 5;
    const std::size_t open = SkipSpace(flat, kw + 5);
    if (open >= flat.size() || flat[open] != '(') {
      continue;
    }
    const std::size_t close = MatchBracket(flat, open, '(', ')');
    if (close == std::string_view::npos) {
      continue;
    }
    if (!IsCatchAllParam(flat.substr(open + 1, close - open - 1))) {
      continue;
    }
    const std::size_t body_open = SkipSpace(flat, close + 1);
    if (body_open >= flat.size() || flat[body_open] != '{') {
      continue;
    }
    const std::size_t body_close =
        MatchBracket(flat, body_open, '{', '}');
    if (body_close == std::string_view::npos) {
      continue;
    }
    if (BodyPreservesException(
            flat.substr(body_open + 1, body_close - body_open - 1))) {
      continue;
    }
    const std::size_t line = view.LineOf(kw);
    if (view.Allowed(line, {"catch-all-swallow", "catch-all"})) {
      continue;
    }
    diagnostics->push_back(Diagnostic{
        path, line, "catch-all-swallow",
        "catch-all handler swallows the exception: rethrow, capture it "
        "via std::current_exception, convert it to a typed vrddram "
        "error (TransientError/FatalError/PanicError), or annotate "
        "with // vrdlint: allow(catch-all)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: campaign-discipline
// ---------------------------------------------------------------------------

/// True for repo-relative paths inside the bench/ layer.
bool IsBenchPath(std::string_view path) {
  return path.starts_with("bench/") ||
         path.find("/bench/") != std::string_view::npos;
}

/// Experiments must not run campaigns themselves: the registry driver
/// owns execution (and its cache). The word-boundary match leaves
/// RunCampaignCached alone, and requiring the '(' leaves non-call
/// mentions (e.g. a function pointer) alone.
void CheckCampaignDiscipline(const std::string& path, const FileView& view,
                             const Config& config,
                             std::vector<Diagnostic>* diagnostics) {
  if (!IsBenchPath(path) ||
      RuleSuppressedForPath(config, "campaign-discipline", path)) {
    return;
  }
  constexpr std::string_view kCall = "RunCampaign";
  const std::string_view flat = view.flat;
  std::size_t pos = 0;
  while ((pos = FindWord(flat, kCall, pos)) != std::string_view::npos) {
    const std::size_t here = pos;
    pos += kCall.size();
    const std::size_t open = SkipSpace(flat, here + kCall.size());
    if (open >= flat.size() || flat[open] != '(') {
      continue;
    }
    const std::size_t line = view.LineOf(here);
    if (view.Allowed(line, {"campaign-discipline"})) {
      continue;
    }
    diagnostics->push_back(Diagnostic{
        path, line, "campaign-discipline",
        "direct RunCampaign call under bench/: experiments must route "
        "execution through the registry driver's cached path "
        "(core::RunCampaignCached) so `vrdrepro run --all` executes "
        "each unique campaign once, or annotate with "
        "// vrdlint: allow(campaign-discipline)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: kernel-allocation (scope-aware since v2)
// ---------------------------------------------------------------------------

/// True for files designated as measurement kernels in the config.
bool IsKernelPath(const Config& config, std::string_view path) {
  for (const std::string& fragment : config.kernel_paths) {
    if (path.find(fragment) != std::string_view::npos) {
      return true;
    }
  }
  return false;
}

/// Scope-aware reserve matching: a `<obj>.reserve(...)` in the *same*
/// function scope excuses growth only when it precedes it textually
/// (the v1 rule); a reserve in a *different* function scope — the
/// constructor provisioning a member the kernel later grows into —
/// excuses it regardless of where the two functions sit in the file.
bool ReserveExcusesGrowth(const FileSymbols& symbols,
                          std::string_view flat, std::string_view obj,
                          std::size_t growth_pos) {
  if (obj.empty()) {
    return false;
  }
  const int growth_scope =
      symbols.EnclosingFunction(symbols.ScopeAt(growth_pos));
  for (const std::string_view accessor : {".reserve", "->reserve"}) {
    std::string needle(obj);
    needle += accessor;
    std::size_t pos = 0;
    while ((pos = flat.find(needle, pos)) != std::string_view::npos) {
      const std::size_t here = pos;
      ++pos;
      if (here > 0 && IsIdentChar(flat[here - 1])) {
        continue;
      }
      const int reserve_scope =
          symbols.EnclosingFunction(symbols.ScopeAt(here));
      if (reserve_scope != growth_scope || here < growth_pos) {
        return true;
      }
    }
  }
  return false;
}

/// The measurement kernel must stay allocation-free end to end
/// (DESIGN.md §9): in kernel-path files, flag `new` expressions,
/// make_unique/make_shared, and container growth whose capacity was
/// not provisioned by a reserve (same scope before the growth, or any
/// other function scope — typically the constructor). Construction-
/// time growth is excused by pairing it with a reserve or by
/// `// vrdlint: allow(kernel-allocation)`.
void CheckKernelAllocation(const std::string& path, const FileView& view,
                           const FileSymbols& symbols, const Config& config,
                           std::vector<Diagnostic>* diagnostics) {
  if (!IsKernelPath(config, path) ||
      RuleSuppressedForPath(config, "kernel-allocation", path)) {
    return;
  }
  const std::string_view flat = view.flat;

  std::size_t pos = 0;
  while ((pos = FindWord(flat, "new", pos)) != std::string_view::npos) {
    const std::size_t here = pos;
    pos += 3;
    const std::size_t after = SkipSpace(flat, here + 3);
    if (after >= flat.size() ||
        (!IsIdentStart(flat[after]) && flat[after] != '(')) {
      continue;  // not an allocation expression
    }
    const std::size_t line = view.LineOf(here);
    if (view.Allowed(line, {"kernel-allocation"})) {
      continue;
    }
    diagnostics->push_back(Diagnostic{
        path, line, "kernel-allocation",
        "`new` in a kernel path: the measurement kernel must stay "
        "allocation-free (DESIGN.md §9); allocate at construction or "
        "annotate with // vrdlint: allow(kernel-allocation)"});
  }

  for (const std::string_view maker : {"make_unique", "make_shared"}) {
    pos = 0;
    while ((pos = FindWord(flat, maker, pos)) != std::string_view::npos) {
      const std::size_t here = pos;
      pos += maker.size();
      std::size_t p = SkipSpace(flat, here + maker.size());
      if (p < flat.size() && flat[p] == '<') {
        const std::size_t close = MatchBracket(flat, p, '<', '>');
        if (close == std::string_view::npos) {
          continue;
        }
        p = SkipSpace(flat, close + 1);
      }
      if (p >= flat.size() || flat[p] != '(') {
        continue;
      }
      const std::size_t line = view.LineOf(here);
      if (view.Allowed(line, {"kernel-allocation"})) {
        continue;
      }
      diagnostics->push_back(Diagnostic{
          path, line, "kernel-allocation",
          std::string(maker) +
              " in a kernel path: the measurement kernel must stay "
              "allocation-free (DESIGN.md §9); allocate at construction "
              "or annotate with // vrdlint: allow(kernel-allocation)"});
    }
  }

  for (const std::string_view method :
       {"push_back", "emplace_back", "resize"}) {
    pos = 0;
    while ((pos = FindWord(flat, method, pos)) != std::string_view::npos) {
      const std::size_t here = pos;
      pos += method.size();
      const std::size_t after = SkipSpace(flat, here + method.size());
      if (after >= flat.size() || flat[after] != '(') {
        continue;
      }
      const std::string_view obj = ObjectExpressionBefore(flat, here);
      if (obj.empty() ||
          ReserveExcusesGrowth(symbols, flat, obj, here)) {
        continue;
      }
      const std::size_t line = view.LineOf(here);
      if (view.Allowed(line, {"kernel-allocation"})) {
        continue;
      }
      // One string grown by append: the chained operator+ temporaries
      // drew GCC 12 -Wrestrict false positives here.
      std::string message = "'";
      message.append(obj).append(".").append(method);
      message.append("' with no earlier '").append(obj);
      message.append(
          ".reserve(...)': growth in a kernel path allocates "
          "(DESIGN.md §9); reserve the capacity at construction or "
          "annotate with // vrdlint: allow(kernel-allocation)");
      diagnostics->push_back(
          Diagnostic{path, line, "kernel-allocation", std::move(message)});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: header-hygiene
// ---------------------------------------------------------------------------

void CheckHeaderHygiene(const std::string& path, const FileView& view,
                        const Config& config,
                        std::vector<Diagnostic>* diagnostics) {
  if (!IsHeaderPath(path) ||
      RuleSuppressedForPath(config, "header-hygiene", path)) {
    return;
  }
  const bool pragma_once =
      view.flat.find("#pragma once") != std::string::npos;
  const bool guard =
      view.flat.find("#ifndef") != std::string::npos &&
      view.flat.find("#define") != std::string::npos;
  if (!pragma_once && !guard && !view.Allowed(1, {"header-hygiene"})) {
    diagnostics->push_back(Diagnostic{
        path, 1, "header-hygiene",
        "header has no include guard (#ifndef/#define) or #pragma once"});
  }
  std::size_t pos = 0;
  while ((pos = FindWord(view.flat, "using", pos)) !=
         std::string_view::npos) {
    const std::size_t kw = pos;
    pos += 5;
    const std::size_t next = SkipSpace(view.flat, kw + 5);
    if (!IsWordAt(view.flat, next, "namespace")) {
      continue;
    }
    const std::size_t line = view.LineOf(kw);
    if (view.Allowed(line, {"header-hygiene"})) {
      continue;
    }
    diagnostics->push_back(Diagnostic{
        path, line, "header-hygiene",
        "`using namespace` in a header leaks into every includer; "
        "qualify names instead"});
  }
}

}  // namespace

std::vector<std::string> CollectUnorderedNames(const FileView& view) {
  std::vector<std::string> names;
  const std::string_view flat = view.flat;
  for (const std::string_view type : kUnorderedTypes) {
    std::size_t pos = 0;
    while ((pos = FindWord(flat, type, pos)) != std::string_view::npos) {
      std::size_t p = SkipSpace(flat, pos + type.size());
      pos += type.size();
      if (p >= flat.size() || flat[p] != '<') {
        continue;  // e.g. an #include or a comment-adjacent mention
      }
      const std::size_t close = MatchBracket(flat, p, '<', '>');
      if (close == std::string_view::npos) {
        continue;
      }
      p = SkipSpace(flat, close + 1);
      if (p < flat.size() && flat[p] == '&') {
        p = SkipSpace(flat, p + 1);
      }
      if (p >= flat.size() || !IsIdentStart(flat[p])) {
        continue;
      }
      std::size_t end = p;
      while (end < flat.size() && IsIdentChar(flat[end])) {
        ++end;
      }
      names.emplace_back(flat.substr(p, end - p));
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void RunCoreRules(const RuleContext& ctx,
                  std::vector<Diagnostic>* diagnostics) {
  static const std::vector<std::string> kNoExtra;
  const std::vector<std::string>& extra =
      ctx.extra_unordered != nullptr ? *ctx.extra_unordered : kNoExtra;
  CheckBannedApi(ctx.path, ctx.view, ctx.config, diagnostics);
  CheckUnorderedIteration(ctx.path, ctx.view, ctx.config, extra,
                          diagnostics);
  if (!RuleSuppressedForPath(ctx.config, "rng-discipline", ctx.path)) {
    CheckRngConstruction(ctx.path, ctx.view, ctx.config, diagnostics);
    CheckRngMemberInit(ctx.path, ctx.view, ctx.config, diagnostics);
  }
  CheckCatchAllSwallow(ctx.path, ctx.view, ctx.config, diagnostics);
  CheckCampaignDiscipline(ctx.path, ctx.view, ctx.config, diagnostics);
  CheckKernelAllocation(ctx.path, ctx.view, ctx.symbols, ctx.config,
                        diagnostics);
  CheckHeaderHygiene(ctx.path, ctx.view, ctx.config, diagnostics);
}

}  // namespace vrdlint
