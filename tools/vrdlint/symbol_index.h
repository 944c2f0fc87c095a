/**
 * @file
 * vrdlint pass-1 symbol index.
 *
 * AnalyzeFile() walks one file's token stream and recovers the
 * structure the rules need: brace-scope nesting classified as
 * namespace / class / function / lambda / control / block, class
 * members with their declared types, and the file's float-typed
 * names.
 *
 * SymbolIndex aggregates the members across the whole tree, so
 * float-determinism can resolve the type of an `obj.field` access
 * whose class is declared in another file.
 *
 * This is deliberately not a C++ front end: classification is
 * heuristic over tokens, tuned to this codebase's style, and rules
 * treat "not found in the index" as "no claim" rather than an error.
 */
#ifndef VRDDRAM_TOOLS_VRDLINT_SYMBOL_INDEX_H
#define VRDDRAM_TOOLS_VRDLINT_SYMBOL_INDEX_H

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "tokenizer.h"

namespace vrdlint {

/// One brace scope of a file, classified by what introduced it.
struct Scope {
  enum class Kind { kNamespace, kClass, kFunction, kLambda, kControl,
                    kBlock };
  Kind kind = Kind::kBlock;
  std::string name;        // class/namespace name, "" otherwise
  std::size_t open = 0;    // flat offset of '{'
  std::size_t close = 0;   // flat offset of the matching '}'
  int parent = -1;         // index into FileSymbols::scopes, -1 = file
};

/// One class member declaration.
struct MemberVar {
  std::string class_name;
  std::string name;
  std::string type;  // space-joined type tokens
};

/// Everything pass 1 recovers from one file.
struct FileSymbols {
  std::vector<Scope> scopes;       // ordered by open position
  std::vector<MemberVar> members;  // class members declared here
  /// Names declared with a floating-point type anywhere in the file
  /// (declaration-shaped scan: `double x`, `float* dst`,
  /// `std::vector<double> v`), sorted and deduplicated.
  std::vector<std::string> float_names;

  /// Innermost scope containing flat offset `pos`, or -1 (file scope).
  int ScopeAt(std::size_t pos) const;

  /// Nearest function or lambda scope at or above scope `s`, or -1.
  int EnclosingFunction(int s) const;
};

/// Analyze one file's stripped text.
FileSymbols AnalyzeFile(const FileView& view);

/// Tree-wide member resolution for pass 2.
struct SymbolIndex {
  /// class name -> members of that class.
  std::map<std::string, std::vector<MemberVar>> members;

  void AddFile(const FileSymbols& symbols);

  /// First member named `name` across every class (in class-name
  /// order), or null when unknown.
  const MemberVar* FindMember(std::string_view name) const;
};

/// True when a recovered type string names a floating-point type.
bool IsFloatType(std::string_view type);

}  // namespace vrdlint

#endif  // VRDDRAM_TOOLS_VRDLINT_SYMBOL_INDEX_H
