#include "common/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"

namespace vrddram {
namespace {

TEST(TableTest, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), FatalError);
}

TEST(TableTest, RejectsMismatchedRowArity) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.AddRow({"only-one"}), FatalError);
}

TEST(TableTest, PrintsAlignedColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "22"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, CellFormatting) {
  EXPECT_EQ(Cell(3.14159, 2), "3.14");
  EXPECT_EQ(Cell(std::int64_t{-5}), "-5");
  EXPECT_EQ(Cell(std::uint64_t{7}), "7");
  EXPECT_EQ(Cell(42), "42");
}

}  // namespace
}  // namespace vrddram
