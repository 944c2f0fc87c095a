/**
 * @file
 * Minimal table emitter used by the bench harnesses to print the
 * rows and series that the paper's tables and figures report.
 */
#ifndef VRDDRAM_COMMON_TABLE_H
#define VRDDRAM_COMMON_TABLE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace vrddram {

/**
 * Column-aligned text table. Collect rows with AddRow(), then Print().
 * Cells are strings; use Cell() helpers for formatted numerics.
 */
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void AddRow(std::vector<std::string> cells);

  /// Render with aligned columns to the given stream.
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with the given number of decimal places.
std::string Cell(double value, int precision = 3);

/// Format an integer cell.
std::string Cell(std::int64_t value);
std::string Cell(std::uint64_t value);
std::string Cell(std::uint32_t value);
std::string Cell(int value);

/// Print a section banner (used between figure panels in benches).
void PrintBanner(std::ostream& os, const std::string& title);

}  // namespace vrddram

#endif  // VRDDRAM_COMMON_TABLE_H
