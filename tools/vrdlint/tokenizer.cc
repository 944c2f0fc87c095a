#include "tokenizer.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace vrdlint {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string Trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool IsWordAt(std::string_view text, std::size_t pos,
              std::string_view word) {
  if (pos + word.size() > text.size() ||
      text.compare(pos, word.size(), word) != 0) {
    return false;
  }
  if (pos > 0 && IsIdentChar(text[pos - 1])) {
    return false;
  }
  const std::size_t end = pos + word.size();
  return end >= text.size() || !IsIdentChar(text[end]);
}

std::size_t FindWord(std::string_view text, std::string_view word,
                     std::size_t from, std::size_t to) {
  const std::size_t limit = std::min(to, text.size());
  std::size_t pos = from;
  while (pos < limit) {
    pos = text.find(word, pos);
    if (pos == std::string_view::npos || pos >= limit) {
      return std::string_view::npos;
    }
    if (IsWordAt(text, pos, word)) {
      return pos;
    }
    ++pos;
  }
  return std::string_view::npos;
}

bool ContainsWord(std::string_view text, std::string_view word) {
  return FindWord(text, word) != std::string_view::npos;
}

bool ContainsCall(std::string_view text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = FindWord(text, word, pos)) != std::string_view::npos) {
    std::size_t p = pos + word.size();
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p]))) {
      ++p;
    }
    if (p < text.size() && text[p] == '(') {
      return true;
    }
    pos += word.size();
  }
  return false;
}

std::size_t SkipSpace(std::string_view text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos;
}

std::size_t MatchBracket(std::string_view text, std::size_t open,
                         char open_char, char close_char) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_char) {
      ++depth;
    } else if (text[i] == close_char) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return std::string_view::npos;
}

std::string_view PreviousWord(std::string_view text, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 &&
         std::isspace(static_cast<unsigned char>(text[i - 1]))) {
    --i;
  }
  std::size_t end = i;
  while (i > 0 && IsIdentChar(text[i - 1])) {
    --i;
  }
  return text.substr(i, end - i);
}

std::string_view ObjectExpressionBefore(std::string_view text,
                                        std::size_t method_pos) {
  std::size_t i = method_pos;
  if (i >= 1 && text[i - 1] == '.') {
    i -= 1;
  } else if (i >= 2 && text[i - 2] == '-' && text[i - 1] == '>') {
    i -= 2;
  } else {
    return {};
  }
  const std::size_t end = i;
  while (i > 0) {
    if (IsIdentChar(text[i - 1])) {
      --i;
    } else if (text[i - 1] == '.') {
      --i;
    } else if (i >= 2 && text[i - 2] == '-' && text[i - 1] == '>') {
      i -= 2;
    } else {
      break;
    }
  }
  while (i < end && !IsIdentStart(text[i])) {
    ++i;
  }
  return text.substr(i, end - i);
}

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      lines.emplace_back(text.substr(begin));
      break;
    }
    lines.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

std::string StripCommentsAndStrings(std::string_view text) {
  std::string out(text);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"' && i > 0 && text[i - 1] == 'R' &&
                   (i < 2 || !IsIdentChar(text[i - 2]))) {
          // Raw string literal: R"delim( ... )delim"
          // assign(1, ')') rather than = ")": GCC 12 draws a false
          // -Wrestrict from the const char* assignment here.
          raw_delim.assign(1, ')');
          for (std::size_t j = i + 1;
               j < text.size() && text[j] != '(' && j < i + 20; ++j) {
            raw_delim += text[j];
          }
          raw_delim += '"';
          state = State::kRawString;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' && !(i > 0 && IsIdentChar(text[i - 1]))) {
          // Skip digit separators (1'000'000) via the ident-char test.
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < text.size()) {
              out[i + 1] = ' ';
            }
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < text.size()) {
            out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) {
            out[i + j] = ' ';
          }
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

namespace {

/// Split a parenthesized annotation list ("a, b") into trimmed tokens.
std::vector<std::string> SplitAnnotationList(std::string_view list_text) {
  std::vector<std::string> tokens;
  std::stringstream list{std::string(list_text)};
  std::string token;
  while (std::getline(list, token, ',')) {
    token = Trim(token);
    if (!token.empty()) {
      tokens.push_back(token);
    }
  }
  return tokens;
}

/// Parse one `vrdlint: allow(a, b)` annotation out of a raw line,
/// returning the list tokens, or empty when there is none.
std::vector<std::string> ParseAllow(const std::string& line) {
  constexpr std::string_view verb = "allow";
  const std::size_t tag = line.find("vrdlint:");
  if (tag == std::string::npos) {
    return {};
  }
  std::size_t p = SkipSpace(line, tag + 8);
  if (line.compare(p, verb.size(), verb) != 0) {
    return {};
  }
  p = SkipSpace(line, p + verb.size());
  if (p >= line.size() || line[p] != '(') {
    return {};
  }
  const std::size_t close = line.find(')', p);
  if (close == std::string::npos) {
    return {};
  }
  return SplitAnnotationList(
      std::string_view(line).substr(p + 1, close - p - 1));
}

/// Collect the allow tokens of every line, with the comment-only
/// propagation rule: a trailing annotation covers its own line; an
/// annotation on a comment-only line also covers the next line.
void CollectAllows(const FileView& view,
                   std::vector<std::vector<std::string>>* out) {
  out->assign(view.raw.size(), {});
  for (std::size_t i = 0; i < view.raw.size(); ++i) {
    const std::vector<std::string> tokens = ParseAllow(view.raw[i]);
    if (tokens.empty()) {
      continue;
    }
    for (const std::string& t : tokens) {
      (*out)[i].push_back(t);
    }
    if (Trim(view.code[i]).empty() && i + 1 < view.raw.size()) {
      for (const std::string& t : tokens) {
        (*out)[i + 1].push_back(t);
      }
    }
  }
}

}  // namespace

std::size_t FileView::LineOf(std::size_t pos) const {
  const auto it =
      std::upper_bound(line_start.begin(), line_start.end(), pos);
  return static_cast<std::size_t>(it - line_start.begin());
}

bool FileView::Allowed(
    std::size_t line,
    std::initializer_list<std::string_view> tokens) const {
  if (line == 0 || line > allows.size()) {
    return false;
  }
  for (const std::string& have : allows[line - 1]) {
    for (const std::string_view want : tokens) {
      if (have == want) {
        return true;
      }
    }
  }
  return false;
}

FileView BuildView(std::string_view text) {
  FileView view;
  view.raw = SplitLines(text);
  const std::string stripped = StripCommentsAndStrings(text);
  view.code = SplitLines(stripped);
  CollectAllows(view, &view.allows);
  view.line_start.reserve(view.code.size());
  for (const std::string& line : view.code) {
    view.line_start.push_back(view.flat.size());
    view.flat += line;
    view.flat += '\n';
  }
  return view;
}

namespace {

/// Compound punctuators, longest first so maximal munch wins.
constexpr std::string_view kPuncts3[] = {"<<=", ">>=", "->*", "..."};
constexpr std::string_view kPuncts2[] = {
    "::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=", "==",
    "!=", "<=", ">=", "&&", "||", "<<", ">>", "&=", "|=", "^=",
};

}  // namespace

std::vector<Token> Tokenize(std::string_view flat) {
  std::vector<Token> tokens;
  tokens.reserve(flat.size() / 4);
  std::size_t i = 0;
  while (i < flat.size()) {
    const char c = flat[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      std::size_t end = i;
      while (end < flat.size() && IsIdentChar(flat[end])) {
        ++end;
      }
      tokens.push_back(
          Token{Token::Kind::kIdent, flat.substr(i, end - i), i});
      i = end;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < flat.size() &&
         std::isdigit(static_cast<unsigned char>(flat[i + 1])))) {
      // Numeric literal: digits, ident chars (hex, suffixes), '.', and
      // exponent signs directly after e/E/p/P.
      std::size_t end = i;
      while (end < flat.size()) {
        const char d = flat[end];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          ++end;
          continue;
        }
        if ((d == '+' || d == '-') && end > i) {
          const char prev = flat[end - 1];
          if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
            ++end;
            continue;
          }
        }
        break;
      }
      tokens.push_back(
          Token{Token::Kind::kNumber, flat.substr(i, end - i), i});
      i = end;
      continue;
    }
    std::string_view text;
    if (i + 3 <= flat.size()) {
      for (const std::string_view p : kPuncts3) {
        if (flat.compare(i, 3, p) == 0) {
          text = flat.substr(i, 3);
          break;
        }
      }
    }
    if (text.empty() && i + 2 <= flat.size()) {
      for (const std::string_view p : kPuncts2) {
        if (flat.compare(i, 2, p) == 0) {
          text = flat.substr(i, 2);
          break;
        }
      }
    }
    if (text.empty()) {
      text = flat.substr(i, 1);
    }
    tokens.push_back(Token{Token::Kind::kPunct, text, i});
    i += text.size();
  }
  return tokens;
}

}  // namespace vrdlint
