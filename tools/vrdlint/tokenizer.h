/**
 * @file
 * vrdlint pass-1 substrate: text helpers, the comment/string-stripped
 * FileView, the token stream, and structural annotations.
 *
 * Everything here is shared by the symbol indexer (symbol_index.h) and
 * the rule families (rules_*.cc). The FileView keeps raw and stripped
 * lines column-aligned so flat offsets translate directly to 1-based
 * source lines, and carries the one in-source annotation:
 *
 *   // vrdlint: allow(rule-or-token, ...)   suppress on this/next line
 */
#ifndef VRDDRAM_TOOLS_VRDLINT_TOKENIZER_H
#define VRDDRAM_TOOLS_VRDLINT_TOKENIZER_H

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace vrdlint {

bool IsIdentStart(char c);
bool IsIdentChar(char c);
std::string Trim(std::string_view s);
std::string ToLower(std::string_view s);

/// True when `text[pos, pos+word)` is `word` bounded by non-identifier
/// characters on both sides.
bool IsWordAt(std::string_view text, std::size_t pos, std::string_view word);

/// First word occurrence of `word` in [from, to) of `text`, or npos.
std::size_t FindWord(std::string_view text, std::string_view word,
                     std::size_t from = 0,
                     std::size_t to = std::string_view::npos);

bool ContainsWord(std::string_view text, std::string_view word);

/// True when `word` appears followed (after whitespace) by '('.
bool ContainsCall(std::string_view text, std::string_view word);

std::size_t SkipSpace(std::string_view text, std::size_t pos);

/// Matching close position for the bracket at `open` (pos of the
/// closer), or npos when unbalanced. Works on comment/string-stripped
/// text, so bracket characters are structural.
std::size_t MatchBracket(std::string_view text, std::size_t open,
                         char open_char, char close_char);

/// Identifier word ending at (whitespace before) `pos`, or empty.
std::string_view PreviousWord(std::string_view text, std::size_t pos);

/// Object expression preceding a `.method` / `->method` use: walks
/// back over identifier characters and member accessors, so
/// `state.traps.push_back` yields "state.traps" and
/// `slot->decay.resize` yields "slot->decay". Empty when the method
/// is not reached through a plain accessor chain.
std::string_view ObjectExpressionBefore(std::string_view text,
                                        std::size_t method_pos);

std::vector<std::string> SplitLines(std::string_view text);

/// Strip comments and string/character literals from the source,
/// replacing them with spaces so offsets and line numbers survive.
std::string StripCommentsAndStrings(std::string_view text);

/**
 * The per-file scanning substrate: raw lines, a comment/string-
 * stripped mirror (stripped chars become spaces, so columns line up),
 * the stripped lines joined into one string for cross-line matching,
 * and the `vrdlint: allow(...)` tokens attached to each line.
 */
struct FileView {
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::vector<std::string>> allows;
  std::string flat;                      // code lines joined with '\n'
  std::vector<std::size_t> line_start;   // flat offset of each line

  /// 1-based line of a flat offset.
  std::size_t LineOf(std::size_t pos) const;

  /// True when the diagnostic rule (or one of its tokens) is allowed
  /// on the given 1-based line.
  bool Allowed(std::size_t line,
               std::initializer_list<std::string_view> tokens) const;
};

FileView BuildView(std::string_view text);

/// One lexical token of the stripped source. `text` views into the
/// flat buffer of the FileView the token was cut from.
struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string_view text;
  std::size_t pos = 0;  // flat offset of the first character
};

/// Tokenize stripped source text: identifiers, numeric literals
/// (including hex and exponent forms), and punctuators with compound
/// operators (`::`, `->`, `+=`, `<<=`, ...) kept as single tokens.
std::vector<Token> Tokenize(std::string_view flat);

}  // namespace vrdlint

#endif  // VRDDRAM_TOOLS_VRDLINT_TOKENIZER_H
