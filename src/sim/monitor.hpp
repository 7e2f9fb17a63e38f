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
 *    length fits in constant memory. All timelines of one MonitorHub
 *    share geometry (width/folds) and therefore stay comparable
 *    bucket-for-bucket.
 *  - MonitorHub: per-core issue/stall/stall-window timelines plus one
 *    busy timeline per DRAM slice, network port, and DMA engine, and
 *    the stall-attribution taxonomy (StallCause). Its report() rolls
 *    the spans up into occupancies and the latency-hiding
 *    effectiveness metric.
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
 * Bucket geometry shared by every Timeline of one MonitorHub. Folding
 * is communicated through the fold counter: a timeline that triggered
 * (or lagged behind) a fold catches up lazily before its next access,
 * so one long span on one timeline re-buckets the others without
 * touching them eagerly.
 */
struct TimelineGeometry
{
    SimTime width = 64.0; ///< current bucket width (ns)
    size_t buckets = 64;  ///< bucket count (fixed per hub)
    uint64_t folds = 0;   ///< times the width has doubled
};

/**
 * One bucketed span accumulator: bins_[i] holds the busy nanoseconds
 * that fell inside [i*width, (i+1)*width). Not thread-safe: it
 * belongs to exactly one (single-threaded) simulation run.
 */
class Timeline
{
  public:
    Timeline() = default;

    explicit Timeline(TimelineGeometry *geo) { reset(geo); }

    /** Rebind to @p geo and zero the accumulator. */
    void
    reset(TimelineGeometry *geo)
    {
        geo_ = geo;
        foldsApplied_ = geo != nullptr ? geo->folds : 0;
        bins_.assign(geo != nullptr ? geo->buckets : 0, 0.0);
        total_ = 0.0;
    }

    /**
     * Accumulate the span [begin, end) into the buckets it overlaps.
     * Spans may arrive in any order (resources complete out of core
     * order); negative or empty spans are ignored.
     */
    void
    addSpan(SimTime begin, SimTime end)
    {
        if (geo_ == nullptr || end <= begin)
            return;
        if (begin < 0.0)
            begin = 0.0;
        // Grow the shared geometry until this span fits, then catch
        // this timeline (and lazily, all siblings) up to it.
        while (end >= static_cast<SimTime>(geo_->buckets) * geo_->width) {
            ++geo_->folds;
            geo_->width *= 2.0;
        }
        sync();
        total_ += end - begin;
        const SimTime w = geo_->width;
        size_t i = static_cast<size_t>(begin / w);
        while (begin < end && i < bins_.size()) {
            const SimTime bucket_end = static_cast<SimTime>(i + 1) * w;
            bins_[i] += std::min(end, bucket_end) - begin;
            begin = bucket_end;
            ++i;
        }
    }

    /**
     * Apply any folds siblings triggered since this timeline was last
     * touched. Call before reading bins(); addSpan() self-syncs.
     */
    void
    sync()
    {
        if (geo_ == nullptr)
            return;
        while (foldsApplied_ < geo_->folds) {
            const size_t half = bins_.size() / 2;
            for (size_t i = 0; i < half; ++i)
                bins_[i] = bins_[2 * i] + bins_[2 * i + 1];
            std::fill(bins_.begin() + static_cast<ptrdiff_t>(half),
                      bins_.end(), 0.0);
            ++foldsApplied_;
        }
        // The width is shared state; recompute lazily from fold count.
    }

    /** Total accumulated span time (ns), independent of bucketing. */
    double total() const { return total_; }

    /** Bucket accumulators; call sync() first. */
    const std::vector<double> &bins() const { return bins_; }

    /** Current (shared) bucket width in ns. */
    SimTime width() const { return geo_ != nullptr ? geo_->width : 0.0; }

  private:
    TimelineGeometry *geo_ = nullptr;
    uint64_t foldsApplied_ = 0;
    std::vector<double> bins_;
    double total_ = 0.0;
};

/**
 * Roll-up of one monitored run; produced by MonitorHub::report().
 * All occupancies are fractions of the observation window (makespan).
 */
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
    double issueOccupancy = 0.0; ///< Σ busy / (cores · lanes · makespan)
    double sliceOccupancy = 0.0; ///< mean DRAM-slice utilization
    double portOccupancy = 0.0;  ///< mean network-port utilization
    double dmaOccupancy = 0.0;   ///< mean DMA-engine utilization
    /// Fraction of the stall window covered by issue activity on the
    /// same core — the paper's latency-hiding claim, measured. 1.0
    /// when nothing ever stalled.
    double latencyHidingEffectiveness = 1.0;
    /// Stall-window time no runnable thread covered (StallCause::
    /// NoRunnable): latency the machine actually ate.
    double exposedStallNs = 0.0;
};

/**
 * The per-run monitor registry: owns one shared bucket geometry and
 * the timelines for every simulated core, DRAM slice, network port,
 * and DMA engine. Wire-up happens once per run (beginRun + the
 * attach* calls on resources); the per-event hooks are addSpan() and
 * beginWait()/endWait().
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
     * Size the monitor for a run over @p cores cores with @p
     * lanes_per_core issue lanes (MTPs) each, and reset all spans.
     * Must be called before attaching timelines to resources.
     */
    void
    beginRun(unsigned cores, unsigned lanes_per_core = 1)
    {
        PGCN_ASSERT(cores > 0, "monitor needs at least one core");
        lanesPerCore_ = lanes_per_core == 0 ? 1 : lanes_per_core;
        geo_ = TimelineGeometry{opt_.initialBucketNs, opt_.buckets, 0};
        cores_.assign(cores, CoreMonitor{});
        slices_.assign(cores, Timeline{});
        ports_.assign(cores, Timeline{});
        dmas_.assign(cores, Timeline{});
        for (CoreMonitor &c : cores_) {
            c.issue.reset(&geo_);
            for (Timeline &t : c.stall)
                t.reset(&geo_);
            c.window.reset(&geo_);
        }
        for (Timeline &t : slices_)
            t.reset(&geo_);
        for (Timeline &t : ports_)
            t.reset(&geo_);
        for (Timeline &t : dmas_)
            t.reset(&geo_);
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
     * Roll the recorded spans up into occupancies and the
     * latency-hiding metric over the window [0, makespan]. Cores with
     * waits still open contribute their window up to the makespan.
     */
    OccupancyReport
    report(SimTime makespan)
    {
        OccupancyReport rep;
        rep.cores.resize(cores_.size());
        closeOpenWindows(makespan);
        double busy_sum = 0.0, window_sum = 0.0, covered_sum = 0.0;
        for (size_t i = 0; i < cores_.size(); ++i) {
            CoreMonitor &c = cores_[i];
            c.issue.sync();
            c.window.sync();
            OccupancyReport::CoreReport &out = rep.cores[i];
            out.issueBusyNs = c.issue.total();
            out.stallMemNs =
                c.stall[static_cast<size_t>(StallCause::MemoryWait)]
                    .total();
            out.stallNetNs =
                c.stall[static_cast<size_t>(StallCause::NetworkWait)]
                    .total();
            out.stallQueueNs =
                c.stall[static_cast<size_t>(StallCause::QueueFull)]
                    .total();
            out.stallRecoveryNs =
                c.stall[static_cast<size_t>(StallCause::RecoveryWait)]
                    .total();
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
            busy_sum += out.issueBusyNs;
            window_sum += out.windowNs;
            covered_sum += out.coveredNs;
        }
        if (makespan > 0.0) {
            rep.issueOccupancy =
                busy_sum / (static_cast<double>(cores_.size()) *
                            lanesPerCore_ * makespan);
            rep.sliceOccupancy = meanOccupancy(slices_, makespan);
            rep.portOccupancy = meanOccupancy(ports_, makespan);
            rep.dmaOccupancy = meanOccupancy(dmas_, makespan);
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
        closeOpenWindows(makespan);
        for (size_t i = 0; i < cores_.size(); ++i) {
            CoreMonitor &c = cores_[i];
            writeRows(os, prefix, "issue", i, c.issue);
            writeRows(os, prefix, "stall_mem", i,
                      c.stall[static_cast<size_t>(StallCause::MemoryWait)]);
            writeRows(os, prefix, "stall_net", i,
                      c.stall[static_cast<size_t>(StallCause::NetworkWait)]);
            writeRows(
                os, prefix, "stall_queue", i,
                c.stall[static_cast<size_t>(StallCause::QueueFull)]);
            writeRows(
                os, prefix, "stall_recovery", i,
                c.stall[static_cast<size_t>(StallCause::RecoveryWait)]);
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

    /** Close any still-open stall windows at the end of the run. */
    void
    closeOpenWindows(SimTime makespan)
    {
        for (CoreMonitor &c : cores_) {
            if (c.openWaits > 0) {
                c.window.addSpan(c.windowStart, makespan);
                c.openWaits = 0;
            }
        }
    }

    static double
    meanOccupancy(std::vector<Timeline> &ts, SimTime makespan)
    {
        if (ts.empty() || makespan <= 0.0)
            return 0.0;
        double sum = 0.0;
        for (Timeline &t : ts)
            sum += t.total();
        return sum / (static_cast<double>(ts.size()) * makespan);
    }

    void
    writeRows(std::ostream &os, const std::string &prefix,
              const char *kind, size_t index, Timeline &t)
    {
        t.sync();
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
    TimelineGeometry geo_{};
    unsigned lanesPerCore_ = 1;
    std::vector<CoreMonitor> cores_;
    std::vector<Timeline> slices_;
    std::vector<Timeline> ports_;
    std::vector<Timeline> dmas_;
};

} // namespace pgcn::sim

#endif // PGCN_SIM_MONITOR_HPP
