/**
 * @file
 * The PIUMA distributed global address space (DGAS) memory system.
 *
 * Each core hosts one DRAM slice behind a bandwidth-limited memory
 * controller. Any core can access any slice; remote accesses pay the
 * network latency of the HyperX-like interconnect and consume
 * bandwidth on the target core's network port. Data placement is
 * modelled logically (callers name the slice), matching how the SpMM
 * kernels interleave CSR lines and feature rows across slices.
 *
 * Since PR 10 the model is a two-phase request/response protocol:
 *
 *  1. issue (requester's domain): byte/transaction accounting, the
 *     request-hop network jitter draw, then a *request event* posted
 *     to the owning slice's domain at the modeled arrival time,
 *     keyed kSeqBandRequest | (requester core, per-core stamp);
 *  2. arrival (slice's domain): bandwidth and queueing resolve in
 *     timestamp order — the request dispatch order IS the
 *     arbitration — jitters and transaction-drop draws come from the
 *     slice's own forked fault stream, and retry/backoff chains
 *     re-arm as slice-domain self-events carrying the original
 *     request key (the retry's state waits in the slice's retry
 *     table);
 *  3. response (requester's domain): a response event keyed
 *     kSeqBandResponse | (slice, per-slice stamp) merges the chunk's
 *     timing into the caller's PendingAccess and resumes the parked
 *     coroutine.
 *
 * Every event of the protocol is a sim::Callback whose closure fits
 * its 64 inline bytes, so the protocol never allocates per event.
 *
 * Because the carried keys decide equal-timestamp dispatch order at
 * any domain count, a threaded multi-domain run is bit-identical to
 * the serial engine; and because every cross-domain edge bears at
 * least modelLookaheadNs() of latency, threading it is legal.
 * The one synchronous survivor is the clean local fast path
 * (requester core == slice, no drop classes enabled): same engine,
 * same domain for any domain count, so resolving it at issue keeps
 * the common case at zero extra events without touching invariance.
 */
#ifndef PGCN_PIUMA_MEMORY_HPP
#define PGCN_PIUMA_MEMORY_HPP

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "piuma/config.hpp"
#include "sim/domain.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/monitor.hpp"
#include "sim/resource.hpp"

namespace pgcn::piuma {

/** Timing outcome of one memory access. */
struct MemoryAccess
{
    /**
     * Time the slice controller finishes streaming the data
     * (queueing + transfer). A pipelined requester (the DMA engine)
     * only needs the return hop past this.
     */
    sim::SimTime serviceDoneAt;
    /**
     * Time the response reaches the requesting core. Stall-on-use:
     * serviceDoneAt + DRAM latency + return network latency;
     * pipelined: serviceDoneAt + return network latency (the DRAM
     * access overlaps the streamed transfer).
     */
    sim::SimTime responseAt;

    /// Re-issues after dropped responses (0 on the clean path).
    uint32_t retries = 0;
    /// Timeouts that fired, including the final one of a failed
    /// request (== retries on a recovered request).
    uint32_t timeouts = 0;
    /// Portion of [issue, responseAt] spent in the recovery protocol
    /// (timeout detection + backoff) rather than queueing/transfer.
    /// For striped objects: the slowest chunk's recovery (chunks
    /// recover concurrently).
    sim::SimTime recoveryNs = 0.0;
    /// Retry budget exhausted: responseAt is the final timeout, no
    /// data arrived, and the caller must record the fault and bail
    /// out (never throw from inside a coroutine).
    bool failed = false;
};

/** Intrusive list link of a parked PendingAccess (see ParkedWaiters). */
struct ParkLink
{
    ParkLink *prev = nullptr;
    ParkLink *next = nullptr;
};

/**
 * An in-flight (possibly striped) access: the join point where chunk
 * responses merge and the awaiting coroutine parks. The address must
 * stay stable from issue until the await resumes — it lives either
 * inside the caller's coroutine frame (the co_await sugar) or in a
 * caller-owned slot vector (the DMA engine). Only the coroutine that
 * owns it awaits it. While that coroutine is parked here, the
 * ParkLink base chains the access into its domain's ParkedWaiters.
 */
struct PendingAccess : ParkLink
{
    MemoryAccess acc{0.0, 0.0};
    sim::SimTime issuedAt = 0.0;
    unsigned core = 0;       ///< requester core (the await domain)
    uint32_t remaining = 0;  ///< outstanding event-path chunks
    std::coroutine_handle<> waiter{}; ///< parked caller, if any
};

/** First unrecoverable drop of a *posted* write, recorded slice-side. */
struct PostedFault
{
    bool failed = false;
    unsigned core = 0;  ///< requester of the lost write
    unsigned slice = 0; ///< slice that exhausted the retry budget
    sim::SimTime whenNs = 0.0; ///< detection time of the final timeout
};

/**
 * The DGAS memory model: per-slice controllers plus per-core network
 * ports, with latency composition per access resolved on the
 * request/response event path described in the file header.
 */
class MemorySystem
{
  public:
    /**
     * @param domains Domain set simulating the machine; slice s lives
     *        in domain domainOf(s), matching the model's core->domain
     *        map, so every resource is owned by exactly one domain.
     * @param cfg System configuration (bandwidths/latencies).
     */
    MemorySystem(sim::DomainSet &domains, const PiumaConfig &cfg);

    /**
     * True when every domain's contiguous core block (core c in domain
     * c * @p domains / numCores) holds whole dies, so no die is split
     * between domains and every cross-domain message crosses dies.
     */
    static bool dieAligned(const PiumaConfig &cfg, unsigned domains);

    /**
     * The conservative-lookahead bound of a @p domains-domain plan:
     * the minimum modeled latency any cross-domain edge of the memory
     * protocol can carry under that placement.
     *
     *   L = min( hop * (1 - netJitter),
     *            [drops enabled] timeoutNs - max_net * (1 + netJitter) )
     *
     * hop is netCrossDieNs when a multi-domain plan is dieAligned()
     * (every cross-domain message crosses dies), else the least
     * one-way hop of the machine; max_net is the largest. The first
     * term bounds request arrivals and responses; the second bounds
     * failure notices, whose edge is timeout minus the already-paid
     * request hop. One domain gets the machine-wide bound, which an
     * explicit Parallel request is held to. Returns +inf for a
     * single-core system (no cross-domain edges exist) and a value
     * <= 0 when a fault config makes Parallel mode illegal.
     */
    static double modelLookaheadNs(const PiumaConfig &cfg, unsigned domains,
                                   const sim::FaultConfig *faults);

    /// The host's hardware threads (at least 1).
    static unsigned hostThreads();

    /**
     * The `--domains auto` rule (DESIGN.md §15): the largest divisor
     * of the die count that does not exceed @p host_threads (by
     * default the host's hardware threads), so each domain holds
     * whole dies. A single-die machine gets 1.
     */
    static unsigned autoDomainCount(const PiumaConfig &cfg,
                                    unsigned host_threads = hostThreads());

    /**
     * Resolve SimControls into concrete DomainSet options. Sequenced
     * (and no controls) is one domain; an explicit `domains > 1` with
     * it throws ConfigError. Parallel and Auto expand the domains==0
     * sentinel via autoDomainCount(), clamp the count to the cores and
     * run on that many threads at the plan's modelLookaheadNs(); Auto
     * falls back to one domain when that bound is not positive, and an
     * explicit Parallel request throws ConfigError instead. A monitor
     * hub shards with the run and never changes the plan.
     */
    static sim::DomainSet::Options
    domainPlan(const PiumaConfig &cfg, const sim::SimControls *controls);

    /** Domain owning core/slice @p entity under this set's count. */
    unsigned
    domainOf(unsigned entity) const
    {
        return static_cast<unsigned>(static_cast<uint64_t>(entity) *
                                     domainCount_ / numCores_);
    }

    /** Engine backing @p core's domain. */
    sim::Engine &
    engineOf(unsigned core)
    {
        return domains_.engine(domainOf(core));
    }

    /**
     * Issue a read of @p bytes from @p slice on behalf of
     * @p requester_core into caller-owned @p pa (address-stable until
     * the await resumes). Local clean accesses resolve synchronously;
     * everything else posts a request event. Callers co_await
     * await(pa) — or use the read() sugar — for the response.
     *
     * @param pipelined When true the requester keeps many requests in
     *        flight (the DMA offload engine): the response skips the
     *        DRAM latency leg (it overlaps the streamed transfer) but
     *        still pays both network hops.
     */
    void
    readAsync(unsigned requester_core, unsigned slice, double bytes,
              bool pipelined, PendingAccess &pa)
    {
        beginAccess(requester_core, pa);
        issueShards_[requester_core].bytesRead += bytes;
        issueChunk(requester_core, slice, bytes, bytes / sliceRate_,
                   bytes / portRate_, pipelined, &pa);
    }

    /**
     * Read a DGAS object whose bytes are interleaved across slices at
     * 8-byte granularity starting at @p start_slice (how feature and
     * output rows live in the distributed address space — this is
     * what prevents high-degree hub vertices from turning one DRAM
     * slice into a hotspot). Completion is the slowest chunk.
     */
    void
    readStripedAsync(unsigned requester_core, unsigned start_slice,
                     double bytes, bool pipelined, PendingAccess &pa)
    {
        beginAccess(requester_core, pa);
        issueShards_[requester_core].bytesRead += bytes;
        issueStriped(requester_core, start_slice, bytes, pipelined, &pa);
    }

    /** Write counterpart of readStripedAsync(). */
    void
    writeStripedAsync(unsigned requester_core, unsigned start_slice,
                      double bytes, bool pipelined, PendingAccess &pa)
    {
        beginAccess(requester_core, pa);
        issueShards_[requester_core].bytesWritten += bytes;
        issueStriped(requester_core, start_slice, bytes, pipelined, &pa);
    }

    /**
     * Fire-and-forget striped write: the caller never waits, so no
     * response events are generated at all (request-only traffic).
     * Retry/timeout accounting still happens slice-side; a final
     * unrecoverable drop is recorded in postedFault() — earliest
     * detection wins, ties to the lowest slice — for entry points
     * that surface lost posted data as SimFaultError after the run.
     */
    void
    writeStripedPosted(unsigned requester_core, unsigned start_slice,
                       double bytes, bool pipelined = false)
    {
        issueShards_[requester_core].bytesWritten += bytes;
        issueStriped(requester_core, start_slice, bytes, pipelined,
                     nullptr);
    }

    /**
     * Awaitable completing when every chunk of @p pa has responded
     * and its merged responseAt has been reached — the stall-on-use
     * wait. Replicates Engine::delayUntil timing bit-for-bit when the
     * access is already complete but its response time lies ahead.
     */
    auto
    await(PendingAccess &pa)
    {
        struct Awaiter
        {
            MemorySystem &mem;
            PendingAccess &pa;

            bool
            await_ready() const noexcept
            {
                return pa.remaining == 0 &&
                       pa.acc.responseAt -
                               mem.engineOf(pa.core).now() <=
                           0.0;
            }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                if (pa.remaining != 0) {
                    mem.parked_[mem.domainOf(pa.core)]->park(pa, h);
                    return;
                }
                sim::Engine &e = mem.engineOf(pa.core);
                e.schedule(pa.acc.responseAt - e.now(), h);
            }
            MemoryAccess await_resume() const noexcept { return pa.acc; }
        };
        return Awaiter{*this, pa};
    }

    /**
     * One-shot access: issues on co_await and resolves to the merged
     * MemoryAccess at response time. The request object is
     * materialized into the awaiting coroutine's frame (guaranteed
     * prvalue elision), so the embedded PendingAccess is
     * address-stable for the protocol's whole round trip.
     */
    struct [[nodiscard]] AccessRequest
    {
        MemorySystem &mem;
        unsigned core;
        unsigned slice;
        double bytes;
        bool pipelined;
        PendingAccess pa{};

        // Unqualified (not &&-only): `co_await mem.read(...)`
        // materializes the request into the coroutine frame, where it
        // outlives the suspension, and a named request awaited later
        // is equally stable.
        auto
        operator co_await()
        {
            mem.readAsync(core, slice, bytes, pipelined, pa);
            return mem.await(pa);
        }
    };

    /** `co_await mem.read(...)` -> MemoryAccess. See AccessRequest. */
    AccessRequest
    read(unsigned requester_core, unsigned slice, double bytes,
         bool pipelined = false)
    {
        return AccessRequest{*this, requester_core, slice, bytes,
                             pipelined};
    }

    /** Total bytes read across all slices. */
    double
    bytesRead() const
    {
        double total = 0.0;
        for (const IssueShard &s : issueShards_)
            total += s.bytesRead;
        return total;
    }

    /** Total bytes written across all slices. */
    double
    bytesWritten() const
    {
        double total = 0.0;
        for (const IssueShard &s : issueShards_)
            total += s.bytesWritten;
        return total;
    }

    /**
     * Slice transactions issued so far.
     * Striped objects count one transaction per 8-byte-interleave
     * chunk, so the remote fraction reflects where the bytes actually
     * went, not where the object nominally started.
     */
    uint64_t
    totalAccesses() const
    {
        uint64_t total = 0;
        for (const IssueShard &s : issueShards_)
            total += s.accesses;
        return total;
    }

    /** Transactions whose requester core != serving slice. */
    uint64_t
    remoteAccesses() const
    {
        uint64_t total = 0;
        for (const IssueShard &s : issueShards_)
            total += s.remoteAccesses;
        return total;
    }

    /**
     * Fraction of slice transactions that crossed the network — the
     * DGAS-locality number the reorder x placement grid reports.
     * 0 when nothing has been accessed yet.
     */
    double
    remoteAccessFraction() const
    {
        const uint64_t total = totalAccesses();
        return total == 0 ? 0.0
                          : static_cast<double>(remoteAccesses()) /
                                static_cast<double>(total);
    }

    /** Bytes served by slice @p i (per-slice traffic distribution). */
    double sliceBytes(size_t i) const { return slices_[i].totalUnits(); }

    /**
     * Total bytes the slice controllers actually serviced. By the
     * conservation invariant this equals bytesRead() + bytesWritten()
     * + retriedBytes() (up to floating-point accumulation error from
     * striped chunk splits) — jitter perturbs *when* bytes move, and
     * hard faults re-move them, but demanded bytes plus retried bytes
     * always equals serviced bytes.
     */
    double
    sliceBytesServed() const
    {
        double total = 0.0;
        for (const sim::BandwidthResource &s : slices_)
            total += s.totalUnits();
        return total;
    }

    /** Transaction re-issues after dropped responses (always on). */
    uint64_t
    retries() const
    {
        uint64_t total = 0;
        for (const SliceShard &s : sliceShards_)
            total += s.retries;
        return total;
    }

    /** Request timeouts fired, including unrecoverable finals. */
    uint64_t
    timeoutsFired() const
    {
        uint64_t total = 0;
        for (const SliceShard &s : sliceShards_)
            total += s.timeouts;
        return total;
    }

    /**
     * Bytes serviced a second (or later) time because the first
     * response was dropped: the retry-amplification side of the
     * conservation invariant.
     */
    double
    retriedBytes() const
    {
        double total = 0.0;
        for (const SliceShard &s : sliceShards_)
            total += s.retriedBytes;
        return total;
    }

    /**
     * Recovery time accumulated by *posted* writes (no caller waits
     * on them, so the slice side owns the accounting). Entry points
     * that previously consumed a posted write's recoveryNs at issue
     * (the dense model) add this after the run drains.
     */
    double
    postedRecoveryNs() const
    {
        double total = 0.0;
        for (const SliceShard &s : sliceShards_)
            total += s.postedRecoveryNs;
        return total;
    }

    /**
     * First unrecoverable posted-write drop across all slices:
     * earliest detection wins, ties to the lowest slice id — a
     * deterministic reduction, independent of domain count and mode.
     */
    PostedFault
    postedFault() const
    {
        PostedFault first;
        for (const SliceShard &s : sliceShards_) {
            if (!s.postedFault.failed)
                continue;
            if (!first.failed || s.postedFault.whenNs < first.whenNs)
                first = s.postedFault;
        }
        return first;
    }

    /**
     * Attach a fault injector perturbing DRAM latency, service
     * durations, and remote-network latency on every access, and —
     * when drop rates are configured — injecting dropped transactions
     * that the modeled timeout/retry/backoff protocol recovers. Null
     * (the default) restores the exact unperturbed timings. The
     * injector itself is only forked, never drawn from: each core and
     * each slice consumes its own child stream, in its own domain's
     * deterministic dispatch order.
     */
    void setFaultInjector(sim::FaultInjector *faults);

    /**
     * Mean utilisation of the slice controllers over [0, end].
     */
    double averageSliceUtilization(sim::SimTime end) const;

    /**
     * Peak utilisation among slice controllers over [0, end] (load
     * imbalance indicator).
     */
    double maxSliceUtilization(sim::SimTime end) const;

    /**
     * Mean utilisation of the network ports over [0, end]; stays low
     * when the paper's "network is not the bottleneck" claim holds.
     */
    double averageNetworkUtilization(sim::SimTime end) const;

    /**
     * Mirror every slice-controller and network-port reservation onto
     * @p hub's occupancy timelines (one per slice and per port). The
     * hub must already be sized by MonitorHub::beginRun for this
     * system's core count. Slice i's and port i's timelines are
     * written only from slice i's domain, so any plan may run.
     */
    void
    attachMonitor(sim::MonitorHub &hub)
    {
        for (unsigned i = 0; i < numCores_; ++i) {
            slices_[i].attachMonitor(hub.sliceTimeline(i));
            netPorts_[i].attachMonitor(hub.portTimeline(i));
        }
    }

    /** Number of DRAM slices (== cores). */
    size_t numSlices() const { return slices_.size(); }

  private:
    /**
     * Per-requester-core issue-side accounting. Single writer: only
     * code running in the core's domain touches its shard (64-byte
     * aligned so shards on different worker threads never share a
     * line). Reduced in core-index order by the cold getters, so
     * every aggregate is independent of domain count and mode.
     */
    struct alignas(64) IssueShard
    {
        double bytesRead = 0.0;
        double bytesWritten = 0.0;
        uint64_t accesses = 0;
        uint64_t remoteAccesses = 0;
        uint64_t requestStamp = 0; ///< per-core kSeqBandRequest counter
    };

    /**
     * One request's immutable issue-side description: everything the
     * slice needs that it cannot derive itself. Service times
     * (bytes / rate) and the unjittered hop (from the two dies) are
     * recomputed at arrival, bit for bit as issueChunk's callers
     * compute them, so the arrival closure — this plus the
     * MemorySystem pointer — fits one sim::Callback.
     */
    struct Request
    {
        PendingAccess *pa; ///< null for posted (request-only) traffic
        unsigned core;
        unsigned slice;
        double bytes;
        double netIn;   ///< jittered request-hop latency
        uint64_t seq;   ///< carried kSeqBandRequest key (all attempts)
        sim::SimTime issue; ///< first-attempt issue time
        bool pipelined;
    };
    static_assert(sizeof(Request) + sizeof(void *) <=
                      sim::Callback::kCapacity,
                  "the arrival closure must fit one Callback");

    /** Jitters drawn once per access at first arrival (slice side). */
    struct Timing
    {
        sim::SimTime sliceDur;
        sim::SimTime portDur;
        double dram;
        double netRet; ///< jittered return-hop latency
    };

    /**
     * A dropped request waiting out its timeout and backoff. Too big
     * for a Callback, it waits in its slice shard's retry table; the
     * retry event carries only (slice, table index).
     */
    struct PendingRetry
    {
        Request r;
        Timing t;
        MemoryAccess chunk; ///< outcome accumulated over the attempts
        sim::SimTime issue; ///< re-issue time of the next attempt
        uint32_t n;         ///< number of the next attempt
    };

    /**
     * Per-slice response-side accounting: the retry protocol runs in
     * the slice's domain, so it owns these. Same single-writer and
     * fixed-order-reduction rules as IssueShard.
     */
    struct alignas(64) SliceShard
    {
        uint64_t retries = 0;
        uint64_t timeouts = 0;
        double retriedBytes = 0.0;
        double postedRecoveryNs = 0.0;
        uint64_t responseStamp = 0; ///< per-slice kSeqBandResponse counter
        PostedFault postedFault{};
        /// Retries in flight, by index. A fired slot is reused, so the
        /// table holds the peak in-flight count, and an aborted run's
        /// records are freed with the shard.
        std::vector<PendingRetry> retryTable;
        std::vector<uint32_t> freeRetries; ///< reusable retryTable slots
    };

    /**
     * The callers of one domain parked in await() on an access whose
     * chunks are still in flight: a circular intrusive list through
     * PendingAccess's ParkLink, registered with the domain's engine
     * as a Waitable. Such a coroutine sits in no event arena (only a
     * response closure points at its PendingAccess), so this list is
     * what names it in deadlock reports and snapshots and what
     * destroys its frame when an aborted run is torn down. After a
     * clean run the list is empty.
     */
    class ParkedWaiters : public sim::Engine::Waitable
    {
      public:
        explicit ParkedWaiters(sim::Engine &engine) : engine_(engine)
        {
            head_.prev = &head_;
            head_.next = &head_;
            engine_.registerWaitable(this);
        }

        ParkedWaiters(const ParkedWaiters &) = delete;
        ParkedWaiters &operator=(const ParkedWaiters &) = delete;

        /** Destroy each parked frame once (the access dies with it). */
        ~ParkedWaiters() override
        {
            while (head_.next != &head_)
                unpark(static_cast<PendingAccess &>(*head_.next)).destroy();
            engine_.unregisterWaitable(this);
        }

        /** Suspend @p h on @p pa (called from its domain's thread). */
        void
        park(PendingAccess &pa, std::coroutine_handle<> h)
        {
            pa.waiter = h;
            pa.prev = head_.prev;
            pa.next = &head_;
            head_.prev->next = &pa;
            head_.prev = &pa;
        }

        /** Unlink @p pa and hand back its parked coroutine. */
        static std::coroutine_handle<>
        unpark(PendingAccess &pa)
        {
            pa.prev->next = pa.next;
            pa.next->prev = pa.prev;
            pa.prev = nullptr;
            pa.next = nullptr;
            const std::coroutine_handle<> h = pa.waiter;
            pa.waiter = {};
            return h;
        }

        size_t
        blockedCount() const override
        {
            size_t n = 0;
            for (const ParkLink *l = head_.next; l != &head_; l = l->next)
                ++n;
            return n;
        }

        void
        appendBlocked(std::vector<sim::BlockedAgent> &out) const override;

      private:
        sim::Engine &engine_;
        ParkLink head_; ///< sentinel: the list is empty when it links itself
    };

    /** Reset @p pa for a fresh access from @p core. */
    void
    beginAccess(unsigned core, PendingAccess &pa)
    {
        PGCN_ASSERT(pa.remaining == 0 && !pa.waiter,
                    "PendingAccess reused while still in flight");
        pa.acc = MemoryAccess{0.0, 0.0};
        pa.core = core;
        pa.issuedAt = engineOf(core).now();
    }

    /** Striped fan-out (or a single chunk when interleave is off). */
    void
    issueStriped(unsigned requester_core, unsigned start_slice,
                 double bytes, bool pipelined, PendingAccess *pa)
    {
        if (!cfg_.dgasFineInterleave) {
            issueChunk(requester_core, start_slice, bytes,
                       bytes / sliceRate_, bytes / portRate_, pipelined,
                       pa);
            return;
        }
        // 8-byte DGAS interleaving: the object spans up to 16
        // consecutive slices (enough to diffuse any hotspot without
        // O(|system|) work per access); each chunk streams
        // concurrently.
        const auto max_chunks = static_cast<unsigned>(
            std::max(1.0, std::min({16.0, bytes / 8.0,
                                    static_cast<double>(cfg_.numCores)})));
        const double chunk = bytes / max_chunks;
        PGCN_ASSERT(start_slice < cfg_.numCores,
                    "start slice " << start_slice << " out of range");
        // One division per striped object, not per chunk.
        const sim::SimTime slice_dur = chunk / sliceRate_;
        const sim::SimTime port_dur = chunk / portRate_;
        unsigned slice = start_slice;
        for (unsigned i = 0; i < max_chunks; ++i) {
            issueChunk(requester_core, slice, chunk, slice_dur, port_dur,
                       pipelined, pa);
            // Wrap without the per-chunk modulo.
            if (++slice == cfg_.numCores)
                slice = 0;
        }
    }

    /**
     * Issue-side half of one chunk: accounting, the request-hop
     * jitter draw, then either the synchronous local fast path or a
     * keyed request event to the slice's domain. Defined in
     * memory.cpp together with the slice-side handlers.
     */
    void issueChunk(unsigned requester_core, unsigned slice, double bytes,
                    sim::SimTime slice_dur, sim::SimTime port_dur,
                    bool pipelined, PendingAccess *pa);

    /** First arrival of a request: draw jitters, run attempt 0. */
    void arrive(Request r);

    /** Unjittered one-way network latency core -> slice (0 = local). */
    double
    netBase(unsigned core, unsigned slice) const
    {
        if (core == slice)
            return 0.0;
        return dieOf_[core] == dieOf_[slice] ? cfg_.netSameDieNs
                                             : cfg_.netCrossDieNs;
    }

    /** Fire retry-table entry @p id of @p slice: its next attempt. */
    void retry(unsigned slice, uint32_t id);

    /**
     * One arbitration attempt, dispatched in the slice's domain in
     * (timestamp, key) order: reserve bandwidth at arrival — a
     * dropped response still consumed it — then either respond or
     * re-arm the retry chain as a self-event carrying the same key.
     */
    void attempt(Request r, Timing t, uint32_t n, sim::SimTime issue,
                 MemoryAccess chunk);

    /** Post (or record, for posted traffic) one chunk's outcome. */
    void respond(const Request &r, const MemoryAccess &chunk);

    /** Merge one chunk into the caller's join point; maybe resume. */
    void completeChunk(PendingAccess &pa, const MemoryAccess &chunk);

    /** Striped-object merge: slowest chunk wins, events sum. */
    static void
    merge(MemoryAccess &into, const MemoryAccess &chunk)
    {
        into.serviceDoneAt = std::max(into.serviceDoneAt,
                                      chunk.serviceDoneAt);
        into.responseAt = std::max(into.responseAt, chunk.responseAt);
        into.retries += chunk.retries;
        into.timeouts += chunk.timeouts;
        into.recoveryNs = std::max(into.recoveryNs, chunk.recoveryNs);
        into.failed = into.failed || chunk.failed;
    }

    sim::DomainSet &domains_;
    const PiumaConfig &cfg_;
    unsigned numCores_;
    unsigned domainCount_;
    // Stored flat (no indirection): one controller + port per slice,
    // each bound to its owning domain's engine.
    std::vector<sim::BandwidthResource> slices_;
    std::vector<sim::BandwidthResource> netPorts_;
    std::vector<unsigned> dieOf_; ///< core -> die id lookup
    double dramLatencyNs_ = 0.0;  ///< cached effectiveDramLatencyNs()
    double sliceRate_ = 1.0;      ///< cached effectiveSliceBandwidth()
    double portRate_ = 1.0;       ///< cached netPortBandwidthGBps
    std::vector<IssueShard> issueShards_; ///< per requester core
    std::vector<SliceShard> sliceShards_; ///< per slice
    /// Fault injector (fork source only); null keeps timings exact.
    sim::FaultInjector *faults_ = nullptr;
    /// Per-requester-core request-hop jitter streams.
    std::vector<sim::FaultStream> coreStreams_;
    /// Per-slice service/DRAM/return-hop jitter + drop streams.
    std::vector<sim::FaultStream> sliceStreams_;
    /// Cached "any transaction-drop class enabled" test so the hot
    /// path pays one predictable branch, not three config loads.
    bool dropsEnabled_ = false;
    /// Per-domain parked callers. Declared last so teardown destroys
    /// their frames while the rest of the system is still alive.
    std::vector<std::unique_ptr<ParkedWaiters>> parked_;
};

/// Fork-salt classes for the model's per-entity fault streams (the
/// DMA engine owns the kSaltDma class; see dma.cpp).
constexpr uint64_t kSaltCoreNet = uint64_t{1} << 32;
constexpr uint64_t kSaltSlice = uint64_t{2} << 32;
constexpr uint64_t kSaltDma = uint64_t{3} << 32;

} // namespace pgcn::piuma

#endif // PGCN_PIUMA_MEMORY_HPP
