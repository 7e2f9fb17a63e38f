#include "table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "logging.hpp"

namespace pgcn {

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers))
{
    PGCN_ASSERT(!headers_.empty(), "table needs at least one column");
}

Table &
Table::row()
{
    if (!rows_.empty()) {
        PGCN_ASSERT(rows_.back().size() == headers_.size(),
                    "row " << rows_.size() - 1 << " has "
                           << rows_.back().size() << " cells, expected "
                           << headers_.size());
    }
    rows_.emplace_back();
    return *this;
}

Table &
Table::cell(const std::string &value)
{
    PGCN_ASSERT(!rows_.empty(), "cell() before row()");
    PGCN_ASSERT(rows_.back().size() < headers_.size(),
                "too many cells in row " << rows_.size() - 1);
    rows_.back().push_back(value);
    return *this;
}

Table &
Table::cell(const char *value)
{
    return cell(std::string(value));
}

Table &
Table::cell(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return cell(oss.str());
}

Table &
Table::cell(int64_t value)
{
    return cell(std::to_string(value));
}

Table &
Table::cell(uint64_t value)
{
    return cell(std::to_string(value));
}

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    os << "== " << title_ << " ==\n";
    auto emit_row = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << cells[c];
        }
        os << "\n";
    };
    emit_row(headers_);
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit_row(row);
    os << "\n";
}

std::string
humanBytes(double bytes)
{
    static const char *suffixes[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
    int idx = 0;
    while (bytes >= 1024.0 && idx < 5) {
        bytes /= 1024.0;
        ++idx;
    }
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(bytes < 10 ? 2 : 1) << bytes << " "
        << suffixes[idx];
    return oss.str();
}

std::string
humanTimeNs(double ns)
{
    static const char *suffixes[] = {"ns", "us", "ms", "s"};
    int idx = 0;
    while (ns >= 1000.0 && idx < 3) {
        ns /= 1000.0;
        ++idx;
    }
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(ns < 10 ? 2 : 1) << ns << " "
        << suffixes[idx];
    return oss.str();
}

} // namespace pgcn
