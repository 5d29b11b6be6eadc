#include "elasticrec/common/table_printer.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "elasticrec/common/error.h"

namespace erec {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header))
{
    ERC_CHECK(!header_.empty(), "table header must not be empty");
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    ERC_CHECK(row.size() == header_.size(),
              "row width " << row.size() << " != header width "
                           << header_.size());
    rows_.push_back(std::move(row));
}

std::string
TablePrinter::num(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

std::string
TablePrinter::num(std::int64_t v)
{
    return std::to_string(v);
}

std::string
TablePrinter::ratio(double v, int precision)
{
    return num(v, precision) + "x";
}

std::string
TablePrinter::percent(double fraction, int precision)
{
    return num(fraction * 100.0, precision) + "%";
}

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto rule = [&]() {
        os << '+';
        for (auto w : widths)
            os << std::string(w + 2, '-') << '+';
        os << '\n';
    };
    auto line = [&](const std::vector<std::string> &cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << ' ' << cells[c]
               << std::string(widths[c] - cells[c].size() + 1, ' ') << '|';
        }
        os << '\n';
    };

    rule();
    line(header_);
    rule();
    for (const auto &row : rows_)
        line(row);
    rule();
}

} // namespace erec
