/**
 * @file
 * The simulated machine every PIUMA program runs on (internal to
 * src/piuma): event domains, the DGAS memory system, per-MTP issue
 * resources, per-core DMA engines (DMA SpMM only), the thread ->
 * core/MTP map, per-core stall and fault records, and the run tail
 * that times the drain and raises the run's first unrecoverable
 * fault. simulateSpmm, simulateDenseMm and
 * simulateRandomWalk each build one and spawn their thread coroutines
 * on it.
 */
#ifndef PGCN_PIUMA_MACHINE_HPP
#define PGCN_PIUMA_MACHINE_HPP

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "piuma/config.hpp"
#include "piuma/dma.hpp"
#include "piuma/memory.hpp"
#include "sim/domain.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/monitor.hpp"
#include "sim/resource.hpp"

namespace pgcn::piuma {

/**
 * Sharding layout: cores are split into contiguous domain blocks (see
 * MemorySystem::domainOf); every core's agents and issue resources
 * live on its domain's engine, and memory requests/responses travel
 * between domains as keyed events, so every domain count dispatches
 * identically. Every mutable accumulator is sharded per core (only
 * code in the core's domain writes its shard) and reduced in
 * core-index order after the run, so aggregates are domain-count-
 * and mode-invariant.
 *
 * The domain set is the first member, so its engines outlive every
 * queue/resource/monitor that registers against them.
 */
struct Machine
{
    /// Per-core accumulator shard, cache-line aligned so shards on
    /// different worker threads never share a line.
    struct alignas(64) CoreStats
    {
        // Stall attribution by wait site (SpMM sites; the dense
        // program's input rows count as feature reads).
        double nnzStallNs = 0.0;
        double rowOffsetStallNs = 0.0;
        double featureStallNs = 0.0;
        double dmaQueueStallNs = 0.0;
        double issueNs = 0.0;
        uint64_t nnzReads = 0;
        // Taxonomy re-bucketing of the same waits by where they were
        // served (always on: one branch + one add per wait). The
        // recovery portion (timeout + backoff re-issues and watchdog
        // resets) is carved out, so hidden and exposed retries stay
        // distinguishable: site sums == memory + network + recovery.
        double stallMemNs = 0.0;
        double stallNetNs = 0.0;
        double recoveryStallNs = 0.0;
        uint64_t stuckResets = 0;
        // First unrecoverable fault seen by this core's threads. A
        // coroutine cannot throw through the engine, so it records
        // the fault and bails out; run() raises it after the drain.
        bool faulted = false;
        std::string faultSite;
        sim::SimTime faultWhenNs = 0.0;
    };

    /**
     * @param plan Domain count and lookahead (one domain for programs
     *        without a sharding knob).
     * @param controls Optional fault injector and run limits; the
     *        monitor is attached separately (attachMonitor).
     */
    Machine(const PiumaConfig &cfg, const sim::DomainSet::Options &plan,
            const sim::SimControls *controls);

    sim::DomainSet domains;
    const PiumaConfig &cfg;
    MemorySystem memory;
    std::vector<sim::BandwidthResource> mtpIssue;
    std::vector<CoreStats> coreStats;
    /// One DMA engine per core when the program offloads to DMA
    /// (empty otherwise). Declared after memory, so engines go first.
    std::vector<DmaEngine> dmaEngines;
    /// Occupancy/stall monitor; null leaves the wait sites at one
    /// predictable branch each. Attaching one forces one domain.
    sim::MonitorHub *monitor = nullptr;
    /// Fault injector shared with memory (fork source); null disables
    /// the stuck-core hazard draw.
    sim::FaultInjector *faults = nullptr;
    double wallSeconds = 0.0; ///< host wall-clock of run()

    /// Mirror issue, slice and port occupancy onto @p hub.
    void attachMonitor(sim::MonitorHub &hub);

    /**
     * Draw the next thread's stuck-core hazard from the main injector
     * (false without injection). Programs draw in tid order before a
     * thread spawns, so the run itself only touches forked streams.
     */
    bool
    drawStuck()
    {
        return faults != nullptr && faults->stuckCore();
    }

    unsigned
    coreOfThread(unsigned tid) const
    {
        return tid / (cfg.mtpsPerCore * cfg.threadsPerMtp);
    }

    unsigned
    mtpOfThread(unsigned tid) const
    {
        return tid / cfg.threadsPerMtp;
    }

    /// The event-domain engine hosting @p core's agents.
    sim::Engine &engineOfCore(unsigned core) { return memory.engineOf(core); }

    /// Slice owning cache line @p line of a line-interleaved array.
    unsigned
    lineSlice(uint64_t line) const
    {
        return static_cast<unsigned>(line % cfg.numCores);
    }

    /// Monitor hook before a blocking wait begins (no-op unattached).
    void
    beginWait(unsigned core, sim::SimTime t0)
    {
        if (monitor != nullptr) [[unlikely]]
            monitor->beginWait(core, t0);
    }

    /// Close a DMA-queue backpressure wait begun at @p t0.
    void
    noteQueueWait(unsigned core, sim::SimTime t0, sim::SimTime now)
    {
        coreStats[core].dmaQueueStallNs += now - t0;
        if (monitor != nullptr) [[unlikely]]
            monitor->endWait(core, sim::StallCause::QueueFull, t0, now);
    }

    /// Close a stuck-core watchdog-reset wait (RecoveryWait cause).
    void
    noteStuckReset(unsigned core, sim::SimTime t0, sim::SimTime now)
    {
        CoreStats &cs = coreStats[core];
        cs.recoveryStallNs += now - t0;
        ++cs.stuckResets;
        if (monitor != nullptr) [[unlikely]]
            monitor->endWait(core, sim::StallCause::RecoveryWait, t0, now);
    }

    /// Record this core's first unrecoverable fault (cold path).
    void recordFault(const char *what, unsigned core, unsigned slice);

    /**
     * A blocking (stall-on-use) read by a thread of @p core:
     * `if (!co_await machine.load(...))` bails out on a fault. The
     * wait is credited to @p site, to the locality taxonomy (by the
     * first slice) and to the monitor; an exhausted retry budget
     * records the core's fault as @p what and resumes false. The
     * awaiter lives in the coroutine frame, so its PendingAccess is
     * address-stable for the protocol's round trip.
     */
    struct [[nodiscard]] Load
    {
        Machine &m;
        unsigned core;
        unsigned slice;
        double bytes;
        double &site;
        const char *what;
        bool striped;
        bool pipelined;
        PendingAccess pa{};
        sim::SimTime t0 = 0.0;

        bool
        await_ready()
        {
            t0 = m.engineOfCore(core).now();
            m.beginWait(core, t0);
            if (striped)
                m.memory.readStripedAsync(core, slice, bytes, pipelined,
                                          pa);
            else
                m.memory.readAsync(core, slice, bytes, pipelined, pa);
            return m.memory.await(pa).await_ready();
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            m.memory.await(pa).await_suspend(h);
        }

        bool
        await_resume()
        {
            const sim::SimTime now = m.engineOfCore(core).now();
            const double waited = now - t0;
            const double recovery = pa.acc.recoveryNs;
            CoreStats &cs = m.coreStats[core];
            site += waited;
            const bool local = slice == core;
            (local ? cs.stallMemNs : cs.stallNetNs) += waited - recovery;
            cs.recoveryStallNs += recovery;
            if (m.monitor != nullptr) [[unlikely]] {
                if (recovery > 0.0)
                    m.monitor->noteRecovery(core, t0, t0 + recovery);
                m.monitor->endWait(core,
                                   local ? sim::StallCause::MemoryWait
                                         : sim::StallCause::NetworkWait,
                                   t0 + recovery, now);
            }
            if (pa.acc.failed) [[unlikely]] {
                m.recordFault(what, core, slice);
                return false;
            }
            return true;
        }
    };

    Load
    load(unsigned core, unsigned slice, double bytes, double &site,
         const char *what, bool striped = false, bool pipelined = false)
    {
        return Load{*this, core, slice,   bytes,
                    site,  what, striped, pipelined};
    }

    /**
     * Drain the run and time it on the host. Unrecoverable faults
     * surface here, after the drain: the per-core thread and
     * DMA-engine records reduce as earliest detection wins, ties to
     * the lowest core (its threads before its DMA engine), and a lost
     * posted write (MemorySystem::postedFault) wins only when strictly
     * earlier. Returns the makespan.
     *
     * @throws sim::SimFaultError naming the first fault.
     */
    sim::SimTime run();

    /// Raise SimFaultError for @p site at @p when_ns.
    [[noreturn]] void fail(const std::string &site,
                           sim::SimTime when_ns) const;

    /// Host fields shared by every program's stats.
    template <class Stats>
    void
    fillHostStats(Stats &s) const
    {
        s.simEvents = domains.eventsProcessed();
        s.wallSeconds = wallSeconds;
        s.eventsPerSec = wallSeconds > 0.0
                             ? static_cast<double>(s.simEvents) / wallSeconds
                             : 0.0;
        s.peakEventQueueDepth = domains.peakQueueDepth();
    }

    /// Recovery fields shared by SpMM and dense (core-order sums).
    template <class Stats>
    void
    fillRecoveryStats(Stats &s) const
    {
        double recovery = 0.0;
        s.stuckResets = 0;
        for (const CoreStats &cs : coreStats) {
            recovery += cs.recoveryStallNs;
            s.stuckResets += cs.stuckResets;
        }
        s.retries = memory.retries();
        s.timeoutsFired = memory.timeoutsFired() + s.stuckResets;
        s.recoveryNs = recovery + memory.postedRecoveryNs();
        s.goodputBytes = memory.bytesRead() + memory.bytesWritten();
    }
};

} // namespace pgcn::piuma

#endif // PGCN_PIUMA_MACHINE_HPP
