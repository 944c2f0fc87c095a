#include "symbol_index.h"

#include <algorithm>

namespace vrdlint {
namespace {

using Toks = std::vector<Token>;

bool TokIs(const Toks& toks, int i, std::string_view text) {
  return i >= 0 && i < static_cast<int>(toks.size()) &&
         toks[static_cast<std::size_t>(i)].text == text;
}

bool TokIdent(const Toks& toks, int i) {
  return i >= 0 && i < static_cast<int>(toks.size()) &&
         toks[static_cast<std::size_t>(i)].kind == Token::Kind::kIdent;
}

std::string_view TokText(const Toks& toks, int i) {
  if (i < 0 || i >= static_cast<int>(toks.size())) {
    return {};
  }
  return toks[static_cast<std::size_t>(i)].text;
}

bool IsAnyOf(std::string_view text,
             std::initializer_list<std::string_view> set) {
  for (const std::string_view s : set) {
    if (text == s) {
      return true;
    }
  }
  return false;
}

/// Index of the '(' matching the ')' at `close`, or -1.
int MatchParenBack(const Toks& toks, int close) {
  int depth = 0;
  for (int j = close; j >= 0; --j) {
    const std::string_view t = TokText(toks, j);
    if (t == ")") {
      ++depth;
    } else if (t == "(") {
      if (--depth == 0) {
        return j;
      }
    }
  }
  return -1;
}

/// Index of the opener matching the closer at `close`, or -1.
int MatchBack(const Toks& toks, int close, std::string_view open_text,
              std::string_view close_text) {
  int depth = 0;
  for (int j = close; j >= 0; --j) {
    const std::string_view t = TokText(toks, j);
    if (t == close_text) {
      ++depth;
    } else if (t == open_text) {
      if (--depth == 0) {
        return j;
      }
    }
  }
  return -1;
}

bool IsCvQual(std::string_view text) {
  return IsAnyOf(text, {"const", "noexcept", "override", "final",
                        "mutable"});
}

/// Classify the '{' at token index `i` by looking backwards. Only the
/// kind and, for classes and named namespaces, the name are filled.
Scope ClassifyBrace(const Toks& toks, int i) {
  Scope info;
  int p = i - 1;
  while (p >= 0 && TokIdent(toks, p) && IsCvQual(TokText(toks, p))) {
    --p;
  }
  // Trailing return type: back over type-ish tokens to a '->'.
  {
    int q = p;
    bool arrow = false;
    for (int steps = 0; q >= 0 && steps < 16; ++steps, --q) {
      const std::string_view t = TokText(toks, q);
      if (t == "->") {
        arrow = true;
        break;
      }
      if (TokIdent(toks, q) ||
          toks[static_cast<std::size_t>(q)].kind ==
              Token::Kind::kNumber ||
          IsAnyOf(t, {"::", "<", ">", "*", "&", ",", "[", "]"})) {
        continue;
      }
      break;
    }
    if (arrow) {
      p = q - 1;
      while (p >= 0 && TokIdent(toks, p) && IsCvQual(TokText(toks, p))) {
        --p;
      }
    }
  }
  if (p < 0) {
    return info;
  }
  const std::string_view t = TokText(toks, p);

  if (t == ")") {
    const int open = MatchParenBack(toks, p);
    if (open <= 0) {
      return info;
    }
    const int b = open - 1;
    const std::string_view before = TokText(toks, b);
    if (IsAnyOf(before, {"for", "while", "if", "switch", "catch"}) ||
        (before == "constexpr" && TokIs(toks, b - 1, "if"))) {
      info.kind = Scope::Kind::kControl;
    } else if (before == "]") {
      info.kind = Scope::Kind::kLambda;
    } else if (before == ")") {
      // operator(): `... operator()(params)` — the matched parens are
      // the parameter list; the pair before them names the operator.
      const int op_open = MatchParenBack(toks, b);
      if (op_open > 0 && TokIs(toks, op_open - 1, "operator")) {
        info.kind = Scope::Kind::kFunction;
      }
    } else if (TokIdent(toks, b)) {
      // A function head. A constructor's initializer list ends in
      // `member(args)`, which lands here too.
      info.kind = Scope::Kind::kFunction;
    }
    return info;
  }

  if (t == "]") {
    // `[captures] { ... }` — a lambda with no parameter list; but an
    // identifier before the '[' means an array declarator instead.
    const int open = MatchBack(toks, p, "[", "]");
    if (open > 0 && !TokIdent(toks, open - 1)) {
      info.kind = Scope::Kind::kLambda;
    }
    return info;
  }

  if (t == "namespace") {
    info.kind = Scope::Kind::kNamespace;
    return info;
  }

  if (TokIdent(toks, p)) {
    const std::string word(t);
    if (word == "do" || word == "else" || word == "try") {
      info.kind = Scope::Kind::kControl;
      return info;
    }
    if (TokIs(toks, p - 1, "namespace")) {
      info.kind = Scope::Kind::kNamespace;
      info.name = word;
      return info;
    }
    // Window scan for a class/struct head (handles base clauses).
    for (int k = p; k >= 0 && p - k < 16; --k) {
      const std::string_view tk = TokText(toks, k);
      if (tk == "enum") {
        return info;  // enum body: plain block
      }
      if (tk == "class" || tk == "struct" || tk == "union") {
        if (TokIs(toks, k - 1, "enum")) {
          return info;
        }
        if (TokIdent(toks, k + 1)) {
          info.kind = Scope::Kind::kClass;
          info.name = TokText(toks, k + 1);
        }
        return info;
      }
      if (TokIdent(toks, k) ||
          IsAnyOf(tk, {"::", ":", ",", "<", ">"})) {
        continue;
      }
      break;
    }
  }
  return info;
}

/// Parse one class-body statement (token indices at class depth) into
/// a member declaration, or return false when it is not one.
bool ParseMemberStatement(const Toks& toks, const std::vector<int>& stmt,
                          MemberVar* member) {
  if (stmt.size() < 2) {
    return false;
  }
  const std::string_view first = TokText(toks, stmt[0]);
  if (IsAnyOf(first, {"using", "typedef", "friend", "static_assert",
                      "template", "enum", "class", "struct", "public",
                      "private", "protected", "operator", "explicit",
                      "virtual", "return"})) {
    return false;
  }
  // Cut the initializer; a '(' before any '=' means a function shape.
  std::vector<int> decl;
  int depth = 0;
  for (const int j : stmt) {
    const std::string_view t = TokText(toks, j);
    if (t == "(") {
      return false;
    }
    if (t == "=" && depth == 0) {
      break;
    }
    if (t == "[" || t == "<" || t == "{") {
      ++depth;
    } else if (t == "]" || t == ">" || t == "}") {
      --depth;
    }
    decl.push_back(j);
  }
  if (decl.size() < 2) {
    return false;
  }
  // Name: last bracket-depth-0 identifier not preceded by '::'.
  int name_tok = -1;
  int ident_count = 0;
  depth = 0;
  for (std::size_t s = 0; s < decl.size(); ++s) {
    const int j = decl[s];
    const std::string_view t = TokText(toks, j);
    if (t == "[" || t == "<" || t == "{") {
      ++depth;
      continue;
    }
    if (t == "]" || t == ">" || t == "}") {
      --depth;
      continue;
    }
    if (depth != 0 || !TokIdent(toks, j)) {
      continue;
    }
    if (IsAnyOf(t, {"static", "mutable", "constexpr", "inline",
                    "volatile", "const"})) {
      continue;
    }
    ++ident_count;
    if (s > 0 && TokText(toks, decl[s - 1]) != "::") {
      name_tok = j;
    }
  }
  if (name_tok < 0 || ident_count < 2) {
    return false;
  }
  std::string type;
  for (const int j : decl) {
    if (j == name_tok) {
      continue;
    }
    if (!type.empty()) {
      type += ' ';
    }
    type += TokText(toks, j);
  }
  member->name = TokText(toks, name_tok);
  member->type = std::move(type);
  return true;
}

/// Declaration-shaped float names: `double x`, `float* dst`,
/// `std::vector<double> v` — mirrors CollectUnorderedNames' approach.
std::vector<std::string> CollectFloatNames(const FileView& view) {
  std::vector<std::string> names;
  const std::string_view flat = view.flat;
  for (const std::string_view type : {"double", "float"}) {
    std::size_t pos = 0;
    while ((pos = FindWord(flat, type, pos)) != std::string_view::npos) {
      std::size_t p = pos + type.size();
      pos += type.size();
      // Skip template closers, pointers, references, and spaces:
      // `vector<double> v`, `double* dst`, `double& x`.
      while (p < flat.size() &&
             (flat[p] == '>' || flat[p] == '*' || flat[p] == '&' ||
              std::isspace(static_cast<unsigned char>(flat[p])))) {
        ++p;
      }
      if (p >= flat.size() || !IsIdentStart(flat[p])) {
        continue;
      }
      std::size_t end = p;
      while (end < flat.size() && IsIdentChar(flat[end])) {
        ++end;
      }
      const std::string_view name = flat.substr(p, end - p);
      if (IsAnyOf(name, {"const", "constexpr", "static"})) {
        continue;
      }
      names.emplace_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

}  // namespace

int FileSymbols::ScopeAt(std::size_t pos) const {
  int best = -1;
  std::size_t best_span = 0;
  for (std::size_t s = 0; s < scopes.size(); ++s) {
    const Scope& scope = scopes[s];
    if (scope.open < pos && pos < scope.close) {
      const std::size_t span = scope.close - scope.open;
      if (best < 0 || span < best_span) {
        best = static_cast<int>(s);
        best_span = span;
      }
    }
  }
  return best;
}

int FileSymbols::EnclosingFunction(int s) const {
  while (s >= 0) {
    const Scope& scope = scopes[static_cast<std::size_t>(s)];
    if (scope.kind == Scope::Kind::kFunction ||
        scope.kind == Scope::Kind::kLambda) {
      return s;
    }
    s = scope.parent;
  }
  return -1;
}

FileSymbols AnalyzeFile(const FileView& view) {
  FileSymbols symbols;
  const Toks toks = Tokenize(view.flat);

  // Scope tree: classify every '{' and pair it with its '}'.
  std::vector<int> stack;  // indices into symbols.scopes
  for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
    const std::string_view t = toks[static_cast<std::size_t>(i)].text;
    if (t == "{") {
      Scope scope = ClassifyBrace(toks, i);
      scope.open = toks[static_cast<std::size_t>(i)].pos;
      scope.close = view.flat.size();  // patched when the '}' arrives
      scope.parent = stack.empty() ? -1 : stack.back();
      stack.push_back(static_cast<int>(symbols.scopes.size()));
      symbols.scopes.push_back(std::move(scope));
    } else if (t == "}") {
      if (!stack.empty()) {
        symbols.scopes[static_cast<std::size_t>(stack.back())].close =
            toks[static_cast<std::size_t>(i)].pos;
        stack.pop_back();
      }
    }
  }

  // Members: statements at depth 0 of each class body.
  for (const Scope& scope : symbols.scopes) {
    if (scope.kind != Scope::Kind::kClass) {
      continue;
    }
    std::vector<int> stmt;
    for (int j = 0; j < static_cast<int>(toks.size()); ++j) {
      const Token& tok = toks[static_cast<std::size_t>(j)];
      if (tok.pos <= scope.open) {
        continue;
      }
      if (tok.pos >= scope.close) {
        break;
      }
      const std::string_view t = tok.text;
      if (t == "{") {
        // Nested body or brace initializer: skip to the matching '}'.
        int d = 0;
        int k = j;
        for (; k < static_cast<int>(toks.size()); ++k) {
          const std::string_view u = TokText(toks, k);
          if (u == "{") {
            ++d;
          } else if (u == "}") {
            if (--d == 0) {
              break;
            }
          }
        }
        if (TokIs(toks, k + 1, ";")) {
          j = k;  // brace initializer: the ';' will close the stmt
          continue;
        }
        stmt.clear();  // function definition body
        j = k;
        continue;
      }
      if (t == ";") {
        MemberVar member;
        if (ParseMemberStatement(toks, stmt, &member)) {
          member.class_name = scope.name;
          symbols.members.push_back(std::move(member));
        }
        stmt.clear();
        continue;
      }
      if (t == ":" && stmt.size() == 1 &&
          IsAnyOf(TokText(toks, stmt[0]),
                  {"public", "private", "protected"})) {
        stmt.clear();
        continue;
      }
      stmt.push_back(j);
    }
  }

  symbols.float_names = CollectFloatNames(view);
  return symbols;
}

void SymbolIndex::AddFile(const FileSymbols& symbols) {
  for (const MemberVar& member : symbols.members) {
    members[member.class_name].push_back(member);
  }
}

const MemberVar* SymbolIndex::FindMember(std::string_view name) const {
  for (const auto& [cls, vars] : members) {
    for (const MemberVar& member : vars) {
      if (member.name == name) {
        return &member;
      }
    }
  }
  return nullptr;
}

bool IsFloatType(std::string_view type) {
  return ContainsWord(type, "double") || ContainsWord(type, "float");
}

}  // namespace vrdlint
