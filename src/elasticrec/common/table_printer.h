#pragma once

/**
 * @file
 * Console table and CSV rendering used by the benchmark harnesses to
 * print paper-style result tables.
 */

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace erec {

/**
 * Collects rows of string cells and renders them either as an aligned
 * console table or as CSV. The first row added is treated as the header.
 */
class TablePrinter
{
  public:
    /** Start a table with the given column headers. */
    explicit TablePrinter(std::vector<std::string> header);

    /** Append a data row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format doubles with the given precision. */
    static std::string num(double v, int precision = 2);

    /** Convenience: format an integer cell. */
    static std::string num(std::int64_t v);

    /** Convenience: format "3.3x"-style ratio cells. */
    static std::string ratio(double v, int precision = 2);

    /** Convenience: format a percentage cell, e.g. "94.0%". */
    static std::string percent(double fraction, int precision = 1);

    /** Render as an aligned, boxed console table. */
    void print(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace erec
