#include "common/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace pgcn {

namespace {

/** Shortest decimal form that round-trips the exact double. */
std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Minimal JSON string escaping for sweep-point keys and quarantine
 *  messages (which, unlike keys, may carry newlines and tabs from
 *  multi-line error strings — a raw newline would tear the record). */
std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"':
        case '\\':
            out.push_back('\\');
            out.push_back(c);
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            out.push_back(c);
        }
    }
    return out;
}

/**
 * Parse one checkpoint line of the restricted grammar this class
 * writes: {"key":"...","name":number,...} for completed points, or
 * {"key":"...","quarantined":"message"} for poisoned ones (in which
 * case @p quarantined is set and @p values left empty), optionally
 * followed by "config_error":true (sets @p config_error). Returns false
 * on any malformed content (most commonly the truncated last line of
 * a crashed run) so the caller can skip it.
 */
bool
parseLine(const std::string &line, std::string &key,
          JsonlCheckpoint::Values &values,
          std::optional<std::string> &quarantined, bool &config_error)
{
    quarantined.reset();
    config_error = false;
    const char *p = line.c_str();
    auto skipWs = [&] {
        while (*p == ' ' || *p == '\t')
            ++p;
    };
    auto parseString = [&](std::string &out) {
        if (*p != '"')
            return false;
        ++p;
        out.clear();
        while (*p != '"') {
            if (*p == '\0')
                return false;
            if (*p == '\\') {
                ++p;
                switch (*p) {
                case '\0':
                    return false;
                case 'n':
                    out.push_back('\n');
                    ++p;
                    continue;
                case 't':
                    out.push_back('\t');
                    ++p;
                    continue;
                case 'r':
                    out.push_back('\r');
                    ++p;
                    continue;
                default:
                    break; // \" and \\ fall through verbatim
                }
            }
            out.push_back(*p++);
        }
        ++p; // closing quote
        return true;
    };

    skipWs();
    if (*p++ != '{')
        return false;
    skipWs();
    std::string name;
    if (!parseString(name) || name != "key")
        return false;
    skipWs();
    if (*p++ != ':')
        return false;
    skipWs();
    if (!parseString(key))
        return false;
    skipWs();
    values.clear();
    while (*p == ',') {
        ++p;
        skipWs();
        if (!parseString(name))
            return false;
        skipWs();
        if (*p++ != ':')
            return false;
        skipWs();
        if (*p == '"') {
            // The only string-valued field the grammar admits is a
            // quarantine message.
            std::string message;
            if (name != "quarantined" || !parseString(message))
                return false;
            quarantined = std::move(message);
            skipWs();
            continue;
        }
        if (quarantined && name == "config_error") {
            // The only boolean field: it follows a quarantine message
            // and is written only as true.
            if (std::strncmp(p, "true", 4) != 0)
                return false;
            p += 4;
            config_error = true;
            skipWs();
            continue;
        }
        char *end = nullptr;
        const double v = std::strtod(p, &end);
        if (end == p)
            return false;
        p = end;
        values[name] = v;
        skipWs();
    }
    if (*p++ != '}')
        return false;
    skipWs();
    return *p == '\0';
}

/** The first line of a checkpoint bound to @p stamp. */
std::string
stampLine(const std::string &stamp)
{
    return "{\"stamp\":\"" + stamp + "\"}";
}

} // namespace

JsonlCheckpoint::JsonlCheckpoint(const std::string &path, bool resume,
                                 const std::string &stamp)
    : path_(path)
{
    bool empty = true;
    if (resume) {
        std::ifstream in(path);
        if (in) {
            std::string line;
            size_t line_no = 0;
            while (std::getline(in, line)) {
                ++line_no;
                if (line.empty())
                    continue;
                if (empty) {
                    empty = false;
                    if (!stamp.empty() && line != stampLine(stamp)) {
                        PGCN_THROW(ConfigError,
                                   "cannot resume checkpoint "
                                       << path << ": its first line is not "
                                       << stampLine(stamp)
                                       << " (other faults, flags or code);"
                                          " rerun without --resume");
                    }
                    if (line.rfind("{\"stamp\":", 0) == 0)
                        continue; // the stamp is not a point
                }
                std::string key;
                Values values;
                std::optional<std::string> quarantined;
                bool config_error = false;
                if (parseLine(line, key, values, quarantined,
                              config_error)) {
                    if (quarantined) {
                        // Poisoned point: remember the failure so a
                        // resume never re-runs it. Last line wins, so
                        // a quarantine supersedes an (impossible in
                        // practice) earlier success and vice versa.
                        points_.erase(key);
                        failures_[key] =
                            Failure{std::move(*quarantined), config_error};
                    } else {
                        failures_.erase(key);
                        points_[key] = std::move(values);
                    }
                } else {
                    // Almost always the torn final line of a crashed
                    // run; the point is recomputed, nothing is lost.
                    warn("checkpoint " + path + ":" +
                         std::to_string(line_no) +
                         ": skipping unparsable line");
                }
            }
        }
    }
    out_.open(path, resume ? (std::ios::out | std::ios::app)
                           : (std::ios::out | std::ios::trunc));
    if (!out_)
        PGCN_THROW(IoError, "cannot open checkpoint file: " << path);
    if (!stamp.empty() && empty) {
        out_ << stampLine(stamp) << "\n";
        out_.flush();
        if (!out_)
            PGCN_THROW(IoError, "I/O error writing checkpoint: " << path_);
    }
}

void
JsonlCheckpoint::record(const std::string &key, const Values &values)
{
    if (!enabled())
        return;
    out_ << "{\"key\":\"" << escapeJson(key) << "\"";
    for (const auto &[name, value] : values)
        out_ << ",\"" << escapeJson(name) << "\":" << formatDouble(value);
    out_ << "}\n";
    // Flush now: the whole point of the checkpoint is surviving a
    // crash immediately after this record.
    out_.flush();
    if (!out_)
        PGCN_THROW(IoError, "I/O error writing checkpoint: " << path_);
    failures_.erase(key); // a success lifts any standing quarantine
    points_[key] = values;
}

void
JsonlCheckpoint::quarantine(const std::string &key,
                            const std::string &message, bool config_error)
{
    if (!enabled())
        return;
    out_ << "{\"key\":\"" << escapeJson(key) << "\",\"quarantined\":\""
         << escapeJson(message) << "\"";
    // Only a ConfigError adds the flag: every other quarantine line
    // keeps the bytes it always had.
    if (config_error)
        out_ << ",\"config_error\":true";
    out_ << "}\n";
    out_.flush();
    if (!out_)
        PGCN_THROW(IoError, "I/O error writing checkpoint: " << path_);
    points_.erase(key);
    failures_[key] = Failure{message, config_error};
}

void
JsonlCheckpoint::writeFinalJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        PGCN_THROW(IoError, "cannot open sweep JSON for writing: " << path);
    out << "{\n  \"points\": {\n";
    bool first_point = true;
    for (const auto &[key, values] : points_) {
        if (!first_point)
            out << ",\n";
        first_point = false;
        out << "    \"" << escapeJson(key) << "\": {";
        bool first_value = true;
        for (const auto &[name, value] : values) {
            if (!first_value)
                out << ", ";
            first_value = false;
            out << "\"" << escapeJson(name)
                << "\": " << formatDouble(value);
        }
        out << "}";
    }
    out << "\n  }";
    if (!failures_.empty()) {
        // Quarantined points are reported, not silently dropped: the
        // consolidated JSON names every configuration that never
        // produced values and why.
        out << ",\n  \"quarantined\": {\n";
        bool first = true;
        for (const auto &[key, failure] : failures_) {
            if (!first)
                out << ",\n";
            first = false;
            out << "    \"" << escapeJson(key) << "\": \""
                << escapeJson(failure.message) << "\"";
        }
        out << "\n  }";
    }
    out << "\n}\n";
    if (!out)
        PGCN_THROW(IoError, "I/O error writing sweep JSON: " << path);
}

OrderedCheckpointWriter::OrderedCheckpointWriter(JsonlCheckpoint &ckpt,
                                                size_t count)
    : ckpt_(ckpt), count_(count)
{
}

void
OrderedCheckpointWriter::commit(size_t index, const std::string &key,
                                JsonlCheckpoint::Values values)
{
    std::lock_guard<std::mutex> lock(mutex_);
    PGCN_ASSERT(index >= next_ && !pending_.count(index),
                "sweep point resolved twice");
    pending_[index] =
        Pending{Pending::Kind::Write, key, std::move(values), {}};
    flushLocked();
}

void
OrderedCheckpointWriter::skip(size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    PGCN_ASSERT(index >= next_ && !pending_.count(index),
                "sweep point resolved twice");
    pending_[index] = Pending {};
    flushLocked();
}

void
OrderedCheckpointWriter::fail(size_t index, const std::string &key,
                              std::string message, bool config_error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    PGCN_ASSERT(index >= next_ && !pending_.count(index),
                "sweep point resolved twice");
    pending_[index] = Pending{Pending::Kind::Quarantine, key, {},
                              std::move(message), config_error};
    flushLocked();
}

size_t
OrderedCheckpointWriter::resolved() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_ + pending_.size();
}

bool
OrderedCheckpointWriter::done() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_ == count_ && pending_.empty();
}

void
OrderedCheckpointWriter::flushLocked()
{
    auto it = pending_.begin();
    while (it != pending_.end() && it->first == next_) {
        switch (it->second.kind) {
        case Pending::Kind::Write:
            ckpt_.record(it->second.key, it->second.values);
            break;
        case Pending::Kind::Quarantine:
            ckpt_.quarantine(it->second.key, it->second.message,
                             it->second.configError);
            break;
        case Pending::Kind::Skip:
            break;
        }
        it = pending_.erase(it);
        ++next_;
    }
}

} // namespace pgcn
