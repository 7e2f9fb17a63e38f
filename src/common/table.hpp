/**
 * @file
 * Aligned-text table emitter.
 *
 * Every bench binary reports its figure/table data through this so
 * that output is uniform: a human-readable aligned table on stdout.
 */
#ifndef PGCN_COMMON_TABLE_HPP
#define PGCN_COMMON_TABLE_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace pgcn {

/**
 * A simple column-aligned table builder. Cells are strings; numeric
 * convenience overloads format with sensible defaults. Rows must all
 * have the same arity as the header.
 */
class Table
{
  public:
    /**
     * Create a table with the given column headers.
     *
     * @param title Caption printed above the table.
     * @param headers Column names; arity fixes the row width.
     */
    Table(std::string title, std::vector<std::string> headers);

    /** Begin a new row; subsequent cell() calls fill it left to right. */
    Table &row();

    /** Append a string cell to the current row. */
    Table &cell(const std::string &value);

    /** Append a C-string cell to the current row. */
    Table &cell(const char *value);

    /**
     * Append a floating-point cell.
     *
     * @param value The number to format.
     * @param precision Digits after the decimal point.
     */
    Table &cell(double value, int precision = 3);

    /** Append an integer cell. */
    Table &cell(int64_t value);

    /** Append an unsigned integer cell. */
    Table &cell(uint64_t value);

    /** Number of data rows so far. */
    size_t rowCount() const { return rows_.size(); }

    /**
     * Render as an aligned text table.
     *
     * @param os Destination stream.
     */
    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Format a byte count with a binary-unit suffix (e.g. "1.50 GiB").
 */
std::string humanBytes(double bytes);

/**
 * Format a nanosecond duration with an adaptive unit (ns/us/ms/s).
 */
std::string humanTimeNs(double ns);

} // namespace pgcn

#endif // PGCN_COMMON_TABLE_HPP
