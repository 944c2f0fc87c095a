/**
 * @file
 * Rule family: rng-flow — symbol-aware RNG dataflow checks that see
 * past the literal construction line the v1 rng-discipline rule
 * pattern-matches:
 *
 *  (a) an Rng captured by reference (`[&rng]`) into a ParallelFor/
 *      Submit lambda without pre-forked per-task streams;
 *  (b) an Rng passed by non-const reference across a function
 *      boundary into per-shard code — resolved against the tree-wide
 *      symbol index, so the callee may live in another file;
 *  (c) an Rng re-seeded (`Reseed(...)`) from an expression not rooted
 *      in a registered seed-call.
 *
 * All three share the pre-forked excusal with rng-discipline: a
 * Fork(...) in the enclosing scope before the dispatch means the
 * shard streams were derived deterministically.
 */
#include <algorithm>

#include "rules.h"

namespace vrdlint {
namespace {

/// Split a call argument list into top-level comma-separated pieces.
std::vector<std::string_view> SplitArgs(std::string_view args) {
  std::vector<std::string_view> out;
  int depth = 0;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const char c = args[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
    } else if (c == ',' && depth == 0) {
      out.push_back(args.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  if (begin < args.size() || !out.empty()) {
    out.push_back(args.substr(begin));
  } else if (!Trim(args).empty()) {
    out.push_back(args);
  }
  return out;
}

/// True when `text` trims to a single plain identifier.
bool IsPlainIdentifier(std::string_view text, std::string* name) {
  const std::string trimmed = Trim(text);
  if (trimmed.empty() || !IsIdentStart(trimmed[0])) {
    return false;
  }
  for (const char c : trimmed) {
    if (!IsIdentChar(c)) {
      return false;
    }
  }
  *name = trimmed;
  return true;
}

/// Rng streams visible to a dispatch at `dl`: file-level declarations
/// before the dispatch, minus names re-declared inside the body, plus
/// non-const Rng-typed parameters of the enclosing function.
std::vector<std::string> OuterRngNames(const RuleContext& ctx,
                                       const std::vector<RngDecl>& decls,
                                       const DispatchLambda& dl) {
  std::vector<std::string> names;
  for (const RngDecl& decl : decls) {
    if (decl.pos >= dl.open) {
      continue;
    }
    bool local = false;
    for (const RngDecl& other : decls) {
      if (other.name == decl.name && other.pos > dl.body_open &&
          other.pos < dl.body_close) {
        local = true;
        break;
      }
    }
    if (!local) {
      names.push_back(decl.name);
    }
  }
  const int fn = ctx.symbols.EnclosingFunction(ctx.symbols.ScopeAt(dl.kw));
  if (fn >= 0) {
    for (const Param& param :
         ctx.symbols.scopes[static_cast<std::size_t>(fn)].params) {
      if (!param.name.empty() && !param.is_const &&
          ContainsWord(param.type, "Rng")) {
        names.push_back(param.name);
      }
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// (a) explicit by-reference capture of an Rng into the lambda.
void CheckRefCaptures(const RuleContext& ctx, const DispatchLambda& dl,
                      const std::vector<std::string>& rng_names,
                      std::vector<Diagnostic>* diagnostics) {
  const std::string_view intro = std::string_view(ctx.view.flat).substr(
      dl.intro + 1, dl.intro_close - dl.intro - 1);
  for (const std::string_view entry : SplitArgs(intro)) {
    const std::string trimmed = Trim(entry);
    if (trimmed.size() < 2 || trimmed[0] != '&') {
      continue;  // default captures and by-value captures
    }
    std::string name;
    if (!IsPlainIdentifier(trimmed.substr(1), &name)) {
      continue;
    }
    if (std::find(rng_names.begin(), rng_names.end(), name) ==
        rng_names.end()) {
      continue;
    }
    const std::size_t line = ctx.view.LineOf(dl.intro);
    if (ctx.view.Allowed(line, {"rng-flow"})) {
      continue;
    }
    diagnostics->push_back(Diagnostic{
        ctx.path, line, "rng-flow",
        "Rng '" + name + "' captured by reference into a " +
            std::string(dl.keyword) +
            " lambda: every task advances the same stream in pool "
            "order; fork per-task streams before dispatch "
            "(DESIGN.md §6) or annotate with "
            "// vrdlint: allow(rng-flow)"});
  }
}

/// (b) non-const Rng& across a function boundary inside the lambda.
void CheckBoundaryCalls(const RuleContext& ctx, const DispatchLambda& dl,
                        const std::vector<std::string>& rng_names,
                        std::vector<Diagnostic>* diagnostics) {
  const std::string_view flat = ctx.view.flat;
  std::size_t i = dl.body_open + 1;
  while (i < dl.body_close) {
    if (!IsIdentStart(flat[i]) || (i > 0 && IsIdentChar(flat[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < dl.body_close && IsIdentChar(flat[end])) {
      ++end;
    }
    const std::string name(flat.substr(i, end - i));
    const std::size_t name_pos = i;
    i = end;
    // Method calls dispatch on their object, not the index; keywords
    // and the registered seed-deriving calls are not boundaries.
    if (name_pos >= 1 && flat[name_pos - 1] == '.') {
      continue;
    }
    if (name_pos >= 2 && flat[name_pos - 2] == '-' &&
        flat[name_pos - 1] == '>') {
      continue;
    }
    const std::size_t open = SkipSpace(flat, end);
    if (open >= dl.body_close || flat[open] != '(') {
      continue;
    }
    bool is_seed_call = false;
    for (const std::string& call : ctx.config.seed_calls) {
      if (name == call) {
        is_seed_call = true;
        break;
      }
    }
    if (is_seed_call) {
      continue;
    }
    const std::vector<FunctionSig>* sigs = ctx.index.FindFunctions(name);
    if (sigs == nullptr) {
      continue;
    }
    const std::size_t close = MatchBracket(flat, open, '(', ')');
    if (close == std::string_view::npos || close > dl.body_close) {
      continue;
    }
    const std::vector<std::string_view> call_args =
        SplitArgs(flat.substr(open + 1, close - open - 1));
    for (const FunctionSig& sig : *sigs) {
      bool flagged = false;
      for (std::size_t j = 0;
           j < sig.params.size() && j < call_args.size(); ++j) {
        const Param& param = sig.params[j];
        if (param.is_const || !param.is_ref ||
            !ContainsWord(param.type, "Rng")) {
          continue;
        }
        std::string arg_name;
        if (!IsPlainIdentifier(call_args[j], &arg_name)) {
          continue;  // e.g. streams[i]: an indexed per-task stream
        }
        if (std::find(rng_names.begin(), rng_names.end(), arg_name) ==
            rng_names.end()) {
          continue;
        }
        const std::size_t line = ctx.view.LineOf(name_pos);
        if (ctx.view.Allowed(line, {"rng-flow"})) {
          continue;
        }
        diagnostics->push_back(Diagnostic{
            ctx.path, line, "rng-flow",
            "Rng '" + arg_name + "' passed by non-const reference into "
            "'" + name + "' (declared at " + sig.file + ":" +
                std::to_string(sig.line) + ") inside a " +
                std::string(dl.keyword) +
                " lambda: the callee advances a stream shared across "
                "tasks; pass a forked per-task stream instead "
                "(DESIGN.md §6)"});
        flagged = true;
        break;
      }
      if (flagged) {
        break;  // one diagnostic per call site, not per signature
      }
    }
  }
}

/// (c) re-seeding from an expression not rooted in a seed-call.
void CheckReseed(const RuleContext& ctx,
                 std::vector<Diagnostic>* diagnostics) {
  const std::string_view flat = ctx.view.flat;
  std::size_t pos = 0;
  while ((pos = FindWord(flat, "Reseed", pos)) !=
         std::string_view::npos) {
    const std::size_t here = pos;
    pos += 6;
    if (here >= 2 && flat[here - 2] == ':' && flat[here - 1] == ':') {
      continue;  // qualified definition: Rng::Reseed
    }
    const std::size_t open = SkipSpace(flat, here + 6);
    if (open >= flat.size() || flat[open] != '(') {
      continue;
    }
    const std::size_t close = MatchBracket(flat, open, '(', ')');
    if (close == std::string_view::npos) {
      continue;
    }
    const std::string args(flat.substr(open + 1, close - open - 1));
    const std::string trimmed = Trim(args);
    // Declarations (`void Reseed(std::uint64_t seed)`) pass the seed
    // test through their parameter name; call sites pass it when the
    // argument expression is seed-rooted.
    if (IsSeedExpression(args, ctx.config)) {
      continue;
    }
    const std::size_t line = ctx.view.LineOf(here);
    if (ctx.view.Allowed(line, {"rng-flow"})) {
      continue;
    }
    diagnostics->push_back(Diagnostic{
        ctx.path, line, "rng-flow",
        "Rng re-seeded from a non-seed expression (" + trimmed +
            "): root the new seed in MixSeed/HashLabel/Fork or a "
            "*seed* value so the stream stays reproducible, or "
            "annotate with // vrdlint: allow(rng-flow)"});
  }
}

}  // namespace

void CheckRngFlow(const RuleContext& ctx,
                  const std::vector<RngDecl>& decls,
                  std::vector<Diagnostic>* diagnostics) {
  if (RuleSuppressedForPath(ctx.config, "rng-flow", ctx.path)) {
    return;
  }
  for (const DispatchLambda& dl : FindDispatchLambdas(ctx.view)) {
    if (ForkedInEnclosingScope(ctx.view, dl.kw)) {
      continue;  // per-task streams were pre-forked in this scope
    }
    const std::vector<std::string> rng_names =
        OuterRngNames(ctx, decls, dl);
    if (rng_names.empty()) {
      continue;
    }
    CheckRefCaptures(ctx, dl, rng_names, diagnostics);
    CheckBoundaryCalls(ctx, dl, rng_names, diagnostics);
  }
  CheckReseed(ctx, diagnostics);
}

}  // namespace vrdlint
