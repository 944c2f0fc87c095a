#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace vrddram {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  VRD_FATAL_IF(header_.empty(), "table requires at least one column");
}

void TextTable::AddRow(std::vector<std::string> cells) {
  VRD_FATAL_IF(cells.size() != header_.size(),
               "row arity does not match header");
  rows_.push_back(std::move(cells));
}

void TextTable::Print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left << std::setw(
          static_cast<int>(widths[c])) << row[c];
    }
    os << '\n';
  };
  print_row(header_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-');
    if (c + 1 < widths.size()) {
      rule += "  ";
    }
  }
  os << rule << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string Cell(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string Cell(std::int64_t value) { return std::to_string(value); }
std::string Cell(std::uint64_t value) { return std::to_string(value); }
std::string Cell(std::uint32_t value) { return std::to_string(value); }
std::string Cell(int value) { return std::to_string(value); }

void PrintBanner(std::ostream& os, const std::string& title) {
  os << '\n' << "== " << title << " ==" << '\n';
}

}  // namespace vrddram
