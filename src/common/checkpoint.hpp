/**
 * @file
 * Crash-resilient sweep checkpointing.
 *
 * Paper-scale sweeps (hundreds of DES runs) die for mundane reasons —
 * OOM killers, wall-clock limits on shared machines, a single
 * diverging configuration. JsonlCheckpoint makes them restartable:
 * every completed sweep point is appended to a JSON-Lines file and
 * flushed immediately, so a crashed sweep can be re-invoked with
 * --resume and recompute only the missing points. Values round-trip
 * through "%.17g", which strtod parses back to the exact same double,
 * so a resumed sweep's consolidated output is byte-identical to an
 * uninterrupted run's.
 *
 * File format: one object per line,
 *   {"key":"middle/cores=4","gflops":1.2345,...}
 * A truncated final line (the crash happened mid-write) is skipped
 * with a warning; that point is simply recomputed.
 *
 * A checkpoint opened with a configuration stamp starts with one more
 * line, {"stamp":"<hex digest>"}, which is not a point. Resuming it
 * under a different stamp is a ConfigError: points computed under
 * other faults, flags or code would otherwise be reused silently.
 *
 * Poisoned points — configurations whose run fails permanently (e.g.
 * an unrecoverable injected fault) — are *quarantined* instead:
 *   {"key":"middle/cores=4","quarantined":"error message"}
 * A point that failed on a ConfigError also carries
 * "config_error":true, so a resume can tell a sweep whose every point
 * was misconfigured from one that merely lost some points.
 * A --resume run sees the quarantine record and never re-executes the
 * point, so one poisoned configuration cannot wedge every subsequent
 * resume. A later successful record() for the same key supersedes the
 * quarantine (the loader keeps the last occurrence).
 */
#ifndef PGCN_COMMON_CHECKPOINT_HPP
#define PGCN_COMMON_CHECKPOINT_HPP

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>

namespace pgcn {

/** Append-only JSONL checkpoint of completed sweep points. */
class JsonlCheckpoint
{
  public:
    /// Metric name -> value for one sweep point. Ordered so the
    /// serialised form is deterministic.
    using Values = std::map<std::string, double>;

    /** Disabled checkpoint: contains() is false, record() a no-op. */
    JsonlCheckpoint() = default;

    /**
     * Open @p path for appending. With @p resume true, previously
     * completed points are loaded first (a missing file is an empty
     * checkpoint); with @p resume false any existing file is
     * truncated and the sweep starts over. A non-empty @p stamp (a
     * digest of everything that changes a point's values) binds the
     * file to one configuration: a fresh file, or a resumed one that
     * is missing or empty, starts with the stamp line.
     *
     * @throws ConfigError on resume with a @p stamp when the file's
     *         first line is not that stamp's line.
     * @throws IoError when the file cannot be opened for writing.
     */
    JsonlCheckpoint(const std::string &path, bool resume,
                    const std::string &stamp = {});

    /** True when constructed with a path. */
    bool enabled() const { return !path_.empty(); }

    /** Completed points loaded or recorded so far (quarantined points
     *  are tracked separately; see quarantinedCount()). */
    size_t size() const { return points_.size(); }

    /** The values of point @p key, or nullptr if not yet completed. */
    const Values *
    find(const std::string &key) const
    {
        const auto it = points_.find(key);
        return it == points_.end() ? nullptr : &it->second;
    }

    /** The quarantine message of point @p key, or nullptr when the
     *  point is not quarantined. */
    const std::string *
    findFailure(const std::string &key) const
    {
        const auto it = failures_.find(key);
        return it == failures_.end() ? nullptr : &it->second.message;
    }

    /** True when point @p key is quarantined for a ConfigError. */
    bool
    failedOnConfigError(const std::string &key) const
    {
        const auto it = failures_.find(key);
        return it != failures_.end() && it->second.configError;
    }

    /** Quarantined points loaded or recorded so far. */
    size_t quarantinedCount() const { return failures_.size(); }

    /**
     * Record a completed point: stores it and appends one flushed
     * JSONL line so the point survives a crash immediately after.
     * No-op on a disabled checkpoint. Re-recording an existing key
     * overwrites in memory and appends a superseding line (the loader
     * keeps the last occurrence).
     */
    void record(const std::string &key, const Values &values);

    /**
     * Quarantine a permanently failing point: appends one flushed
     * {"key":...,"quarantined":"message"} line so a --resume run skips
     * the point instead of re-running it into the same failure. With
     * @p config_error the line also carries "config_error":true. No-op
     * on a disabled checkpoint. record()ing the same key later lifts
     * the quarantine.
     */
    void quarantine(const std::string &key, const std::string &message,
                    bool config_error = false);

    /**
     * Write every completed point as one consolidated JSON document,
     * sorted by key. Because values survive the JSONL round-trip
     * bit-exactly, a resumed sweep writes a byte-identical file to an
     * uninterrupted one.
     *
     * @throws IoError on I/O failure.
     */
    void writeFinalJson(const std::string &path) const;

  private:
    /// Why a point was quarantined.
    struct Failure
    {
        std::string message;
        bool configError = false;
    };

    std::string path_;
    std::map<std::string, Values> points_;
    /// Quarantined point -> its failure (kept out of points_ so
    /// size()/find() keep meaning "completed").
    std::map<std::string, Failure> failures_;
    std::ofstream out_;
};

/**
 * Thread-safe, order-preserving commit front-end for a JsonlCheckpoint.
 *
 * A parallel sweep completes points in whatever order its workers
 * finish them, but the checkpoint file must look exactly like a serial
 * run's: otherwise resuming a --jobs=8 sweep with --jobs=1 (or
 * comparing their outputs) would depend on scheduling luck. This
 * writer restores determinism by buffering out-of-order completions
 * and appending to the underlying checkpoint strictly in
 * submission-index order.
 *
 * Protocol: the sweep assigns each point a dense index 0..n-1 in
 * submission order, then every point is eventually resolved exactly
 * once via commit() (computed successfully) or skip() (failed, or
 * already present from --resume). Each resolution is buffered under a
 * mutex and a flush loop drains the longest committed prefix into
 * JsonlCheckpoint::record(). Since record() flushes each line, the
 * crash-resilience guarantee is unchanged: at most the buffered
 * out-of-order suffix is lost, and a resumed run recomputes it.
 */
class OrderedCheckpointWriter
{
  public:
    /** @param ckpt Destination checkpoint; must outlive this writer.
     *  @param count Total number of sweep points to be resolved. */
    OrderedCheckpointWriter(JsonlCheckpoint &ckpt, size_t count);

    /** Resolve point @p index with computed @p values. Buffers and
     *  flushes every point whose predecessors are all resolved.
     *  Safe to call from any thread. */
    void commit(size_t index, const std::string &key, JsonlCheckpoint::Values values);

    /** Resolve point @p index without writing anything (failed point
     *  or resume hit): later points can flush past it. Safe to call
     *  from any thread. */
    void skip(size_t index);

    /** Resolve point @p index as permanently failed: a quarantine
     *  record is appended (in order) so --resume never re-runs it;
     *  @p config_error marks a ConfigError. Safe to call from any
     *  thread. */
    void fail(size_t index, const std::string &key, std::string message,
              bool config_error = false);

    /** Points flushed to the checkpoint or skipped so far. */
    size_t resolved() const;

    /** True once all @p count points have been resolved and flushed. */
    bool done() const;

  private:
    /// One buffered resolution.
    struct Pending
    {
        enum class Kind : uint8_t
        {
            Skip,       ///< write nothing
            Write,      ///< record key/values
            Quarantine, ///< quarantine key with message
        };
        Kind kind = Kind::Skip;
        std::string key;
        JsonlCheckpoint::Values values;
        std::string message;
        bool configError = false;
    };

    /// Drain the contiguous resolved prefix starting at next_.
    /// Caller must hold mutex_.
    void flushLocked();

    JsonlCheckpoint &ckpt_;
    size_t count_;
    mutable std::mutex mutex_;
    size_t next_ = 0; ///< lowest unresolved submission index
    std::map<size_t, Pending> pending_; ///< resolved but unflushed
};

} // namespace pgcn

#endif // PGCN_COMMON_CHECKPOINT_HPP
