/**
 * @file
 * Unit tests for the console table / CSV renderer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "elasticrec/common/error.h"
#include "elasticrec/common/table_printer.h"

namespace erec {
namespace {

TEST(TablePrinterTest, FormatsHelpers)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(std::int64_t{42}), "42");
    EXPECT_EQ(TablePrinter::ratio(2.25), "2.25x");
    EXPECT_EQ(TablePrinter::percent(0.94), "94.0%");
}

TEST(TablePrinterTest, RejectsMismatchedRow)
{
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), ConfigError);
}

TEST(TablePrinterTest, PrintsAlignedTable)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("| longer"), std::string::npos);
    // Every line should have equal width.
    std::istringstream iss(out);
    std::string line;
    std::size_t width = 0;
    while (std::getline(iss, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(TablePrinterTest, RowCount)
{
    TablePrinter t({"h"});
    EXPECT_EQ(t.rows(), 0u);
    t.addRow({"r"});
    EXPECT_EQ(t.rows(), 1u);
}

} // namespace
} // namespace erec
