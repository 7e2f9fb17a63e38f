#include "manifest.hpp"

#include <cstdio>
#include <cstring>
#include <ctime>
#include <sstream>

namespace pgcn {

namespace {

constexpr uint64_t kFnv1aPrime = 1099511628211ull;

/** JSON-escape a string (quotes, backslashes, control characters). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace

uint64_t
fnv1a64(const void *data, size_t len, uint64_t hash)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= kFnv1aPrime;
    }
    return hash;
}

uint64_t
fnv1a64(const std::string &text, uint64_t hash)
{
    return fnv1a64(text.data(), text.size(), hash);
}

uint64_t
fnv1a64(double value, uint64_t hash)
{
    // Hash the bit pattern: distinguishes -0.0 from 0.0, which is fine
    // for digests whose only job is detecting any numeric drift.
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv1a64(&bits, sizeof(bits), hash);
}

uint64_t
fnv1a64(uint64_t value, uint64_t hash)
{
    return fnv1a64(&value, sizeof(value), hash);
}

std::string
hashHex(uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
nowIso8601()
{
    const std::time_t now = std::time(nullptr);
    std::tm utc {};
    gmtime_r(&now, &utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
    return buf;
}

std::string
RunManifest::toJsonLine() const
{
    std::ostringstream os;
    os << "{\"bench\":\"" << jsonEscape(bench) << '"';
    os << ",\"timestamp\":\"" << jsonEscape(timestamp) << '"';
    os << ",\"git_sha\":\"" << jsonEscape(gitSha) << '"';
    os << ",\"git_dirty\":" << (gitDirty ? "true" : "false");
    os << ",\"build_type\":\"" << jsonEscape(buildType) << '"';
    os << ",\"compiler\":\"" << jsonEscape(compiler) << '"';
    os << ",\"simd_tier\":\"" << jsonEscape(simdTier) << '"';
    os << ",\"numa_nodes\":" << numaNodes;
    os << ",\"host_threads\":" << hostThreads;
    os << ",\"seed\":" << seed;
    os << ",\"extra\":{";
    for (size_t i = 0; i < extra.size(); ++i) {
        if (i != 0)
            os << ',';
        os << '"' << jsonEscape(extra[i].first) << "\":\""
           << jsonEscape(extra[i].second) << '"';
    }
    os << "}}";
    return os.str();
}

} // namespace pgcn
