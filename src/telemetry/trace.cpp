#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace pgcn::telemetry {

namespace {

/**
 * Shortest-round-trip decimal form of @p v: 17 significant digits
 * reproduce an IEEE double exactly, so traces are bit-reproducible
 * across runs while typical values ("2.5", "1024") stay readable.
 */
std::string
formatDouble(double v)
{
    char buf[32];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

/** JSON string escaping for event names (quotes, backslash, control). */
std::string
escapeJson(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

TraceWriter::NameId
TraceWriter::intern(std::string_view name)
{
    const auto it = nameIds_.find(name);
    if (it != nameIds_.end())
        return it->second;
    const auto id = static_cast<NameId>(names_.size());
    names_.emplace_back(name);
    nameIds_.emplace(names_.back(), id);
    return id;
}

void
TraceWriter::setProcessName(std::string_view name)
{
    meta_.push_back(Meta{"process_name", std::string(name), 0});
}

void
TraceWriter::setThreadName(uint32_t tid, std::string_view name)
{
    meta_.push_back(Meta{"thread_name", std::string(name), tid});
}

void
TraceWriter::begin(double ts_ns, NameId name, uint32_t tid)
{
    events_.push_back(Event{ts_ns, name, tid, 'B'});
}

void
TraceWriter::end(double ts_ns, NameId name, uint32_t tid)
{
    events_.push_back(Event{ts_ns, name, tid, 'E'});
}

void
TraceWriter::mergeFrom(const TraceWriter &other, uint32_t tid_offset,
                       std::string_view track_prefix)
{
    for (const Meta &m : other.meta_) {
        if (m.name == "process_name")
            continue;
        meta_.push_back(
            Meta{m.name, std::string(track_prefix) + m.arg,
                 m.tid + tid_offset});
    }

    // Lazily remap interned names so a million-event detailed trace
    // pays one intern per distinct name, not per event.
    constexpr NameId kUnmapped = UINT32_MAX;
    std::vector<NameId> remap(other.names_.size(), kUnmapped);
    events_.reserve(events_.size() + other.events_.size());
    for (const Event &e : other.events_) {
        NameId &id = remap[e.name];
        if (id == kUnmapped)
            id = intern(other.names_[e.name]);
        events_.push_back(Event{e.tsNs, id, e.tid + tid_offset, e.phase});
    }
}

void
TraceWriter::write(std::ostream &os) const
{
    std::vector<Event> sorted(events_);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Event &a, const Event &b) {
                         return a.tsNs < b.tsNs;
                     });

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    const auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };
    for (const Meta &m : meta_) {
        sep();
        os << "{\"name\":\"" << m.name
           << "\",\"ph\":\"M\",\"pid\":0,\"tid\":" << m.tid
           << ",\"args\":{\"name\":\"" << escapeJson(m.arg) << "\"}}";
    }
    for (const Event &e : sorted) {
        sep();
        os << "{\"name\":\"" << escapeJson(names_[e.name])
           << "\",\"ph\":\"" << e.phase
           << "\",\"ts\":" << formatDouble(e.tsNs / 1000.0)
           << ",\"pid\":0,\"tid\":" << e.tid << "}";
    }
    os << "\n]}\n";
}

void
TraceWriter::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        PGCN_THROW(IoError, "cannot open trace output file: " << path);
    write(out);
}

} // namespace pgcn::telemetry
