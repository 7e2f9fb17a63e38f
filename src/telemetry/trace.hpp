/**
 * @file
 * Chrome-trace-event exporter: accumulates duration (B/E) and
 * metadata (M) events in memory and serialises them as the
 * JSON object format that chrome://tracing and https://ui.perfetto.dev
 * load directly.
 *
 * Timestamps are simulated nanoseconds converted to the format's
 * microsecond unit at write time. Events may be recorded out of
 * timestamp order (a span's end is often known before a later span's
 * begin is recorded); write() stable-sorts by timestamp, so the file
 * is monotonic and equal-timestamp events keep recording order —
 * which, because recording follows the engine's deterministic
 * dispatch order, makes the serialised trace bit-reproducible.
 *
 * Event names are interned: recording stores a 4-byte id, so a
 * million-descriptor detailed trace does not copy a million strings.
 */
#ifndef PGCN_TELEM_TRACE_HPP
#define PGCN_TELEM_TRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pgcn::telemetry {

/** Accumulates trace events and writes Chrome-trace JSON. */
class TraceWriter
{
  public:
    /** Interned event-name handle. */
    using NameId = uint32_t;

    /** Intern @p name, returning a stable id (idempotent). */
    NameId intern(std::string_view name);

    /** The string interned as @p id. */
    const std::string &
    nameOf(NameId id) const
    {
        return names_[id];
    }

    /** Name the process track (one metadata event; call once). */
    void setProcessName(std::string_view name);

    /** Name thread track @p tid (one metadata event per tid). */
    void setThreadName(uint32_t tid, std::string_view name);

    /** Open a duration span at @p ts_ns on track @p tid. */
    void begin(double ts_ns, NameId name, uint32_t tid);

    /** Close the innermost span of @p name at @p ts_ns on @p tid. */
    void end(double ts_ns, NameId name, uint32_t tid);

    /** Convenience overloads interning on the fly (setup paths). */
    void
    begin(double ts_ns, std::string_view name, uint32_t tid)
    {
        begin(ts_ns, intern(name), tid);
    }
    void
    end(double ts_ns, std::string_view name, uint32_t tid)
    {
        end(ts_ns, intern(name), tid);
    }

    /** Events recorded so far (metadata + spans). */
    size_t eventCount() const { return meta_.size() + events_.size(); }

    /**
     * Fold @p other's events into this writer on worker-tagged
     * tracks: span/metadata tids are shifted by @p tid_offset and
     * thread-track names prefixed with @p track_prefix. @p other's
     * process_name
     * metadata is dropped (the destination owns the process track).
     * Merging workers in index order keeps the combined trace
     * deterministic: equal-timestamp events keep merge order under
     * write()'s stable sort.
     */
    void mergeFrom(const TraceWriter &other, uint32_t tid_offset,
                   std::string_view track_prefix);

    /**
     * Serialise everything as a Chrome-trace JSON object. Metadata
     * events come first, then all other events stable-sorted by
     * timestamp. The writer is left intact (write() can be repeated).
     */
    void write(std::ostream &os) const;

    /** write() into @p path; fatal if the file cannot be opened. */
    void writeFile(const std::string &path) const;

  private:
    /** One recorded non-metadata event. */
    struct Event
    {
        double tsNs;
        NameId name;
        uint32_t tid;
        char phase; ///< 'B' or 'E'
    };

    /** One metadata event (process/thread naming). */
    struct Meta
    {
        std::string name; ///< "process_name" / "thread_name"
        std::string arg;  ///< the human-readable track name
        uint32_t tid;
    };

    std::vector<std::string> names_;
    std::map<std::string, NameId, std::less<>> nameIds_;
    std::vector<Event> events_;
    std::vector<Meta> meta_;
};

} // namespace pgcn::telemetry

#endif // PGCN_TELEM_TRACE_HPP
