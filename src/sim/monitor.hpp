/**
 * @file
 * Occupancy and stall-attribution monitors for the timing model.
 *
 * The paper's scaling argument is an occupancy argument: PIUMA hides
 * DRAM/network latency by keeping enough threads runnable that some
 * thread can always issue. A flat counter ("total stall ns") cannot
 * test that claim — it says how much waiting happened, not whether the
 * waiting was *covered* by other work or *exposed* as idle issue
 * slots. These monitors record busy/blocked spans on a bucketed
 * timeline so the two can be told apart after the run.
 *
 * Components:
 *
 *  - Timeline: a fixed-size array of time buckets accumulating busy
 *    nanoseconds. When a span lands past the last bucket the bucket
 *    width doubles and adjacent buckets fold together, so any run
 *    length fits in constant memory. Each timeline folds on its own
 *    spans only, so timelines written from different event domains
 *    share no state.
 *  - MonitorHub: per-core issue/stall/stall-window timelines plus one
 *    busy timeline per DRAM slice, network port, and DMA engine, and
 *    the stall-attribution taxonomy (StallCause). Its report() and
 *    writeCsv() first fold every timeline to the widest one, so the
 *    bins compare bucket-for-bucket and equal a serial run's at any
 *    domain count; report() rolls the spans up into per-core stall
 *    times and the latency-hiding effectiveness metric.
 *
 * Cost model: monitors are attach-based — a null pointer plus one
 * predictable branch on each hook when not attached. They observe reservation spans that the model computes
 * anyway and never schedule events, so an attached monitor cannot
 * perturb dispatch order: simulated results are bit-identical with
 * monitors on or off.
 */
#ifndef PGCN_SIM_MONITOR_HPP
#define PGCN_SIM_MONITOR_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <vector>

#include "common/logging.hpp"
#include "sim/engine.hpp"

namespace pgcn::sim {

/**
 * Why a simulated thread was not issuing. The first four are
 * measured directly at the wait sites; NoRunnable is derived at
 * report time as the part of the stall window no runnable thread
 * covered (exposed stall).
 */
enum class StallCause : uint8_t
{
    MemoryWait = 0,   ///< waiting on a local DRAM slice access
    NetworkWait = 1,  ///< waiting on a remote (cross-core) access
    QueueFull = 2,    ///< backpressure pushing into a full DMA queue
    RecoveryWait = 3, ///< timeout/backoff re-issuing dropped requests
    NoRunnable = 4,   ///< derived: stall time not hidden by any thread
};

/** Number of directly-measured stall causes (excludes NoRunnable). */
inline constexpr size_t kMeasuredStallCauses = 4;

/** Human-readable StallCause name. */
inline const char *
stallCauseName(StallCause c)
{
    switch (c) {
    case StallCause::MemoryWait: return "memory_wait";
    case StallCause::NetworkWait: return "network_wait";
    case StallCause::QueueFull: return "queue_full";
    case StallCause::RecoveryWait: return "recovery_wait";
    case StallCause::NoRunnable: return "no_runnable";
    }
    return "unknown";
}

/**
 * One bucketed span accumulator: bins_[i] holds the busy nanoseconds
 * that fell inside [i*width, (i+1)*width). The width doubles (folding
 * adjacent buckets together) only when one of this timeline's own
 * spans lands past the last bucket, so its bins depend on its spans
 * alone, never on a sibling's. Not thread-safe: one timeline has one
 * writer, the event domain that owns its core or slice.
 */
class Timeline
{
  public:
    Timeline() = default;

    /** An empty accumulator of @p buckets buckets, @p width ns each. */
    Timeline(size_t buckets, SimTime width)
        : width_(width), bins_(buckets, 0.0)
    {
    }

    /**
     * Accumulate the span [begin, end) into the buckets it overlaps.
     * Spans may arrive in any order (resources complete out of core
     * order); negative or empty spans are ignored.
     */
    void
    addSpan(SimTime begin, SimTime end)
    {
        if (bins_.empty() || end <= begin)
            return;
        if (begin < 0.0)
            begin = 0.0;
        while (end >= static_cast<SimTime>(bins_.size()) * width_)
            fold();
        total_ += end - begin;
        size_t i = static_cast<size_t>(begin / width_);
        while (begin < end && i < bins_.size()) {
            const SimTime bucket_end = static_cast<SimTime>(i + 1) * width_;
            bins_[i] += std::min(end, bucket_end) - begin;
            begin = bucket_end;
            ++i;
        }
    }

    /** Fold until the bucket width is at least @p width. */
    void
    foldTo(SimTime width)
    {
        while (!bins_.empty() && width_ < width)
            fold();
    }

    /** Total accumulated span time (ns), independent of bucketing. */
    double total() const { return total_; }

    /** Bucket accumulators at width(). */
    const std::vector<double> &bins() const { return bins_; }

    /** Current bucket width in ns. */
    SimTime width() const { return width_; }

  private:
    /** Double the width: bucket i takes buckets 2i and 2i+1. */
    void
    fold()
    {
        const size_t half = bins_.size() / 2;
        for (size_t i = 0; i < half; ++i)
            bins_[i] = bins_[2 * i] + bins_[2 * i + 1];
        std::fill(bins_.begin() + static_cast<ptrdiff_t>(half), bins_.end(),
                  0.0);
        width_ *= 2.0;
    }

    SimTime width_ = 0.0;
    std::vector<double> bins_;
    double total_ = 0.0;
};

/** Roll-up of one monitored run; produced by MonitorHub::report(). */
struct OccupancyReport
{
    struct CoreReport
    {
        double issueBusyNs = 0.0;  ///< Σ issue-slot service time
        double stallMemNs = 0.0;   ///< thread-time waiting on local DRAM
        double stallNetNs = 0.0;   ///< thread-time waiting cross-core
        double stallQueueNs = 0.0; ///< thread-time blocked on DMA queues
        /// thread-time in modeled fault recovery (timeout + backoff)
        double stallRecoveryNs = 0.0;
        double windowNs = 0.0;     ///< wall (sim) time ≥1 thread stalled
        double coveredNs = 0.0;    ///< window time with issue activity
    };

    std::vector<CoreReport> cores;
    /// Fraction of the stall window covered by issue activity on the
    /// same core — the paper's latency-hiding claim, measured. 1.0
    /// when nothing ever stalled.
    double latencyHidingEffectiveness = 1.0;
    /// Stall-window time no runnable thread covered (StallCause::
    /// NoRunnable): latency the machine actually ate.
    double exposedStallNs = 0.0;
};

/**
 * The per-run monitor registry: owns the timelines for every simulated
 * core, DRAM slice, network port, and DMA engine. Wire-up happens
 * once per run (beginRun + the attach* calls on resources); the
 * per-event hooks are addSpan() and beginWait()/endWait(). Each
 * core's timelines are written only from that core's event domain
 * and each slice's and port's only from the slice's, so a hub needs
 * no lock and never changes a run's domain plan.
 */
class MonitorHub
{
  public:
    struct Options
    {
        size_t buckets = 64;          ///< fixed bucket count
        SimTime initialBucketNs = 64.0; ///< starting bucket width
    };

    MonitorHub() = default;

    explicit MonitorHub(const Options &opt) : opt_(opt) {}

    /**
     * Size the monitor for a run over @p cores cores and reset all
     * spans. Must be called before attaching timelines to resources.
     */
    void
    beginRun(unsigned cores)
    {
        PGCN_ASSERT(cores > 0, "monitor needs at least one core");
        cores_.assign(cores, CoreMonitor{});
        slices_.assign(cores, Timeline{});
        ports_.assign(cores, Timeline{});
        dmas_.assign(cores, Timeline{});
        forEachTimeline([this](Timeline &t) {
            t = Timeline(opt_.buckets, opt_.initialBucketNs);
        });
    }

    /** Number of monitored cores (0 before beginRun). */
    unsigned cores() const { return static_cast<unsigned>(cores_.size()); }

    /// Busy timeline collecting a core's MTP issue-slot reservations.
    Timeline *issueTimeline(unsigned core) { return &cores_[core].issue; }
    /// Busy timeline of one DRAM slice.
    Timeline *sliceTimeline(unsigned core) { return &slices_[core]; }
    /// Busy timeline of one network port.
    Timeline *portTimeline(unsigned core) { return &ports_[core]; }
    /// Busy timeline of one DMA engine.
    Timeline *dmaTimeline(unsigned core) { return &dmas_[core]; }

    /**
     * A thread on @p core entered a blocking wait at @p now. Paired
     * with endWait(); nesting across threads of one core is expected —
     * the stall *window* is the union of all open waits.
     */
    void
    beginWait(unsigned core, SimTime now)
    {
        CoreMonitor &c = cores_[core];
        if (c.openWaits++ == 0)
            c.windowStart = now;
    }

    /**
     * The wait started at @p begin on @p core resolved at @p end for
     * reason @p cause. Accumulates thread-stall time per cause and
     * closes the core's stall window when the last open wait resolves.
     */
    void
    endWait(unsigned core, StallCause cause, SimTime begin, SimTime end)
    {
        CoreMonitor &c = cores_[core];
        c.stall[static_cast<size_t>(cause)].addSpan(begin, end);
        PGCN_ASSERT(c.openWaits > 0, "endWait without beginWait");
        if (--c.openWaits == 0)
            c.window.addSpan(c.windowStart, end);
    }

    /**
     * Credit [begin, end) to RecoveryWait without touching the wait
     * window. Used when one blocking wait splits into a recovery
     * portion (timeout + backoff before the final re-issue) and a
     * residual memory/network portion: the caller keeps the single
     * beginWait/endWait pair for the window and attributes the
     * recovery slice through this hook.
     */
    void
    noteRecovery(unsigned core, SimTime begin, SimTime end)
    {
        cores_[core]
            .stall[static_cast<size_t>(StallCause::RecoveryWait)]
            .addSpan(begin, end);
    }

    /**
     * Roll the recorded spans up into per-core stall times and the
     * latency-hiding metric over the window [0, makespan]. Cores with
     * waits still open contribute their window up to the makespan.
     */
    OccupancyReport
    report(SimTime makespan)
    {
        OccupancyReport rep;
        rep.cores.resize(cores_.size());
        closeRun(makespan);
        double window_sum = 0.0, covered_sum = 0.0;
        for (size_t i = 0; i < cores_.size(); ++i) {
            const CoreMonitor &c = cores_[i];
            const auto stall = [&c](StallCause cause) {
                return c.stall[static_cast<size_t>(cause)].total();
            };
            OccupancyReport::CoreReport &out = rep.cores[i];
            out.issueBusyNs = c.issue.total();
            out.stallMemNs = stall(StallCause::MemoryWait);
            out.stallNetNs = stall(StallCause::NetworkWait);
            out.stallQueueNs = stall(StallCause::QueueFull);
            out.stallRecoveryNs = stall(StallCause::RecoveryWait);
            out.windowNs = c.window.total();
            // Bucket-level overlap: within one bucket a core cannot
            // have covered more stall-window time than it spent busy
            // (or than the window itself). The bucket approximation
            // over- rather than under-estimates coverage by at most
            // one bucket width per disjoint stall episode.
            const std::vector<double> &busy = c.issue.bins();
            const std::vector<double> &win = c.window.bins();
            for (size_t b = 0; b < busy.size() && b < win.size(); ++b)
                out.coveredNs += std::min(busy[b], win[b]);
            window_sum += out.windowNs;
            covered_sum += out.coveredNs;
        }
        rep.latencyHidingEffectiveness =
            window_sum > 0.0 ? covered_sum / window_sum : 1.0;
        rep.exposedStallNs = window_sum - covered_sum;
        return rep;
    }

    /**
     * Dump every timeline as CSV rows
     * `kind,index,bucket,t_start_ns,bucket_ns,busy_ns` for offline
     * heatmap rendering (fig8 --occupancy=). @p prefix is prepended
     * verbatim to each row — the caller labels the sweep point.
     */
    void
    writeCsv(std::ostream &os, SimTime makespan, const std::string &prefix)
    {
        closeRun(makespan);
        // CSV kinds of the measured stall causes, in StallCause order.
        static constexpr const char *kStallKinds[kMeasuredStallCauses] = {
            "stall_mem", "stall_net", "stall_queue", "stall_recovery"};
        for (size_t i = 0; i < cores_.size(); ++i) {
            const CoreMonitor &c = cores_[i];
            writeRows(os, prefix, "issue", i, c.issue);
            for (size_t s = 0; s < kMeasuredStallCauses; ++s)
                writeRows(os, prefix, kStallKinds[s], i, c.stall[s]);
            writeRows(os, prefix, "stall_window", i, c.window);
        }
        for (size_t i = 0; i < slices_.size(); ++i)
            writeRows(os, prefix, "slice", i, slices_[i]);
        for (size_t i = 0; i < ports_.size(); ++i)
            writeRows(os, prefix, "port", i, ports_[i]);
        for (size_t i = 0; i < dmas_.size(); ++i)
            writeRows(os, prefix, "dma", i, dmas_[i]);
    }

    /** CSV header matching writeCsv rows, sans the caller prefix. */
    static const char *
    csvHeader()
    {
        return "kind,index,bucket,t_start_ns,bucket_ns,busy_ns";
    }

  private:
    struct CoreMonitor
    {
        Timeline issue;
        std::array<Timeline, kMeasuredStallCauses> stall;
        Timeline window;      ///< union of open waits (any-stall time)
        uint32_t openWaits = 0;
        SimTime windowStart = 0.0;
    };

    template <typename F>
    void
    forEachTimeline(F f)
    {
        for (CoreMonitor &c : cores_) {
            f(c.issue);
            for (Timeline &t : c.stall)
                f(t);
            f(c.window);
        }
        for (std::vector<Timeline> *ts : {&slices_, &ports_, &dmas_})
            for (Timeline &t : *ts)
                f(t);
    }

    /**
     * Close any still-open stall windows at the end of the run, then
     * fold every timeline to the widest one's bucket width.
     */
    void
    closeRun(SimTime makespan)
    {
        for (CoreMonitor &c : cores_) {
            if (c.openWaits > 0) {
                c.window.addSpan(c.windowStart, makespan);
                c.openWaits = 0;
            }
        }
        SimTime width = 0.0;
        forEachTimeline(
            [&width](Timeline &t) { width = std::max(width, t.width()); });
        forEachTimeline([width](Timeline &t) { t.foldTo(width); });
    }

    static void
    writeRows(std::ostream &os, const std::string &prefix,
              const char *kind, size_t index, const Timeline &t)
    {
        const std::vector<double> &bins = t.bins();
        const SimTime w = t.width();
        for (size_t b = 0; b < bins.size(); ++b) {
            if (bins[b] <= 0.0)
                continue; // sparse dump; zero rows carry no signal
            os << prefix << kind << ',' << index << ',' << b << ','
               << static_cast<double>(b) * w << ',' << w << ','
               << bins[b] << '\n';
        }
    }

    Options opt_;
    std::vector<CoreMonitor> cores_;
    std::vector<Timeline> slices_;
    std::vector<Timeline> ports_;
    std::vector<Timeline> dmas_;
};

} // namespace pgcn::sim

#endif // PGCN_SIM_MONITOR_HPP
