/**
 * @file
 * Rule family: float-determinism — guards the bit-identical-reports
 * contract (DESIGN.md §6) against silent floating-point contraction.
 * In bit-equality kernel files (the `float-path` entries of the
 * config) it flags FMA-contractable shapes: `a*b + c` with the
 * multiply and the add at the same parenthesis depth, and `acc += a*b`
 * compound accumulation. `-ffp-contract` may fuse either into one
 * rounding, so the result would depend on the compiler.
 *
 * Typedness is resolved through declaration-shaped float names in the
 * file and the tree-wide member index, with a float literal in the
 * statement as the shortcut.
 */
#include <algorithm>
#include <cctype>

#include "rules.h"

namespace vrdlint {
namespace {

bool IsFloatPath(const Config& config, std::string_view path) {
  for (const std::string& fragment : config.float_paths) {
    if (path.find(fragment) != std::string_view::npos) {
      return true;
    }
  }
  return false;
}

/// Previous non-space character strictly before `pos`, or '\0'.
char PrevNonSpace(std::string_view text, std::size_t pos,
                  std::size_t* where = nullptr) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(text[pos]))) {
      if (where != nullptr) {
        *where = pos;
      }
      return text[pos];
    }
  }
  return '\0';
}

/// True when the '+'/'-' at `pos` is the sign of a literal exponent
/// (`1.5e-3`): glued to an e/E/p/P that is itself glued to a digit.
bool IsExponentSign(std::string_view text, std::size_t pos) {
  if (pos < 2) {
    return false;
  }
  const char e = text[pos - 1];
  if (e != 'e' && e != 'E' && e != 'p' && e != 'P') {
    return false;
  }
  const char d = text[pos - 2];
  return std::isdigit(static_cast<unsigned char>(d)) || d == '.';
}

/// True when the operator character at `pos` is a binary use: the
/// previous non-space character ends a value expression.
bool IsBinaryUse(std::string_view text, std::size_t pos) {
  const char prev = PrevNonSpace(text, pos);
  return IsIdentChar(prev) || prev == ')' || prev == ']';
}

/// True when `stmt` contains a floating-point literal (a numeric
/// token with a '.' or a decimal exponent; hex literals excluded).
bool HasFloatLiteral(std::string_view stmt) {
  std::size_t i = 0;
  while (i < stmt.size()) {
    if (!std::isdigit(static_cast<unsigned char>(stmt[i])) ||
        (i > 0 && IsIdentChar(stmt[i - 1]))) {
      ++i;
      continue;
    }
    const bool hex = stmt[i] == '0' && i + 1 < stmt.size() &&
                     (stmt[i + 1] == 'x' || stmt[i + 1] == 'X');
    bool floaty = false;
    std::size_t end = i;
    while (end < stmt.size() &&
           (IsIdentChar(stmt[end]) || stmt[end] == '.' ||
            stmt[end] == '\'')) {
      if (stmt[end] == '.') {
        floaty = true;
      }
      if (!hex && (stmt[end] == 'e' || stmt[end] == 'E') &&
          end + 1 < stmt.size() &&
          (std::isdigit(static_cast<unsigned char>(stmt[end + 1])) ||
           stmt[end + 1] == '+' || stmt[end + 1] == '-')) {
        floaty = true;
      }
      ++end;
    }
    if (!hex && floaty) {
      return true;
    }
    i = end;
  }
  return false;
}

/// True when some identifier in `stmt` resolves to a floating-point
/// type: a declaration-shaped float name in this file, or a member of
/// a float type anywhere in the tree (for `obj.field` accesses).
bool HasFloatIdentifier(const RuleContext& ctx, std::string_view stmt) {
  std::size_t i = 0;
  while (i < stmt.size()) {
    if (!IsIdentStart(stmt[i]) || (i > 0 && IsIdentChar(stmt[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < stmt.size() && IsIdentChar(stmt[end])) {
      ++end;
    }
    const std::string_view name = stmt.substr(i, end - i);
    const std::size_t start = i;
    i = end;
    if (std::binary_search(ctx.symbols.float_names.begin(),
                           ctx.symbols.float_names.end(),
                           std::string(name))) {
      return true;
    }
    // Field access: resolve through the tree-wide member index.
    const bool is_field =
        (start >= 1 && stmt[start - 1] == '.') ||
        (start >= 2 && stmt[start - 2] == '-' && stmt[start - 1] == '>');
    if (is_field) {
      const MemberVar* member = ctx.index.FindMember(name);
      if (member != nullptr && IsFloatType(member->type)) {
        return true;
      }
    }
  }
  return false;
}

bool StmtIsFloatTyped(const RuleContext& ctx, std::string_view stmt) {
  return HasFloatLiteral(stmt) || HasFloatIdentifier(ctx, stmt);
}

/// One statement of a bit-equality kernel file: report the first
/// FMA-contractable shape, if any.
void CheckKernelStatement(const RuleContext& ctx, std::size_t stmt_begin,
                          std::size_t stmt_end,
                          std::vector<Diagnostic>* diagnostics) {
  const std::string_view flat = ctx.view.flat;
  const std::string_view stmt = flat.substr(stmt_begin,
                                            stmt_end - stmt_begin);
  if (stmt.find('*') == std::string_view::npos &&
      stmt.find("+=") == std::string_view::npos &&
      stmt.find("-=") == std::string_view::npos) {
    return;
  }

  // Compound accumulation: `acc += ...*...` / `acc -= ...*...` with
  // the product at the top level of the right-hand side.
  for (std::size_t i = 0; i + 1 < stmt.size(); ++i) {
    if ((stmt[i] != '+' && stmt[i] != '-') || stmt[i + 1] != '=') {
      continue;
    }
    int depth = 0;
    for (std::size_t j = i + 2; j < stmt.size(); ++j) {
      const char c = stmt[j];
      if (c == '(' || c == '[' || c == '{') {
        ++depth;
      } else if (c == ')' || c == ']' || c == '}') {
        --depth;
      } else if (c == '*' && depth == 0 &&
                 IsBinaryUse(stmt, j) &&
                 (j + 1 >= stmt.size() || stmt[j + 1] != '=')) {
        if (!StmtIsFloatTyped(ctx, stmt)) {
          return;
        }
        const std::size_t line = ctx.view.LineOf(stmt_begin + i);
        if (ctx.view.Allowed(line, {"float-determinism"})) {
          return;
        }
        diagnostics->push_back(Diagnostic{
            ctx.path, line, "float-determinism",
            "float accumulation with a product on the right-hand side "
            "is FMA-contractable: -ffp-contract may fuse it into one "
            "rounding and make the reports compiler-dependent "
            "(DESIGN.md §6); compute the product into an explicit "
            "temporary first or annotate with "
            "// vrdlint: allow(float-determinism)"});
        return;
      }
    }
  }

  // `a*b + c` shape: a binary multiply and a binary add/subtract at
  // the same parenthesis depth in one statement.
  std::vector<std::pair<int, char>> muls;  // (depth, _) positions
  std::vector<std::pair<int, std::size_t>> adds;  // (depth, pos)
  int depth = 0;
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    const char c = stmt[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
      continue;
    }
    if (c == ')' || c == ']' || c == '}') {
      --depth;
      continue;
    }
    if (c == '*') {
      if ((i + 1 < stmt.size() && stmt[i + 1] == '=') ||
          !IsBinaryUse(stmt, i)) {
        continue;  // *= handled above; unary deref/pointer type
      }
      muls.emplace_back(depth, c);
      continue;
    }
    if (c == '+' || c == '-') {
      if (i + 1 < stmt.size() &&
          (stmt[i + 1] == '=' || stmt[i + 1] == c ||
           (c == '-' && stmt[i + 1] == '>'))) {
        continue;  // +=, ++, --, ->
      }
      if (i > 0 && stmt[i - 1] == c) {
        continue;  // second char of ++/--
      }
      if (IsExponentSign(stmt, i) || !IsBinaryUse(stmt, i)) {
        continue;  // literal exponent or unary sign
      }
      adds.emplace_back(depth, i);
    }
  }
  for (const auto& [add_depth, add_pos] : adds) {
    for (const auto& [mul_depth, unused] : muls) {
      if (mul_depth != add_depth) {
        continue;
      }
      if (!StmtIsFloatTyped(ctx, stmt)) {
        return;
      }
      const std::size_t line = ctx.view.LineOf(stmt_begin + add_pos);
      if (ctx.view.Allowed(line, {"float-determinism"})) {
        return;
      }
      diagnostics->push_back(Diagnostic{
          ctx.path, line, "float-determinism",
          "FMA-contractable `a*b + c` shape (multiply and add at the "
          "same depth): -ffp-contract may fuse them into one rounding "
          "and make the reports compiler-dependent (DESIGN.md §6); "
          "split the product into an explicit temporary or annotate "
          "with // vrdlint: allow(float-determinism)"});
      return;
    }
  }
}

/// Segment a kernel file into statements at ';', '{', '}'.
void CheckKernelFile(const RuleContext& ctx,
                     std::vector<Diagnostic>* diagnostics) {
  const std::string_view flat = ctx.view.flat;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const char c = flat[i];
    if (c == ';' || c == '{' || c == '}') {
      if (i > begin) {
        CheckKernelStatement(ctx, begin, i, diagnostics);
      }
      begin = i + 1;
    }
  }
  if (flat.size() > begin) {
    CheckKernelStatement(ctx, begin, flat.size(), diagnostics);
  }
}

}  // namespace

void CheckFloatDeterminism(const RuleContext& ctx,
                           std::vector<Diagnostic>* diagnostics) {
  if (IsFloatPath(ctx.config, ctx.path) &&
      !RuleSuppressedForPath(ctx.config, "float-determinism", ctx.path)) {
    CheckKernelFile(ctx, diagnostics);
  }
}

}  // namespace vrdlint
