/**
 * @file
 * Discrete-event simulation core.
 *
 * The PIUMA timing model is built on this engine: simulated hardware
 * agents (MTP threads, DMA engines) are C++20 coroutines that
 * co_await simulated time (Engine::delay) and shared resources
 * (BandwidthResource, BoundedQueue). The engine is single-threaded
 * and fully deterministic: events at equal timestamps fire in
 * schedule order.
 *
 * Between arena growths (counted by arenaGrowths()) the hot path is
 * allocation-free. An event is a 24-byte POD: a (when, seq) sort key
 * plus a one-word payload that is either a coroutine frame address or
 * (tagged in the low bit) an index into the callback slab. Callbacks
 * carry the memory protocol's request, retry and response events
 * (most events of a PIUMA run) plus test and ad-hoc hooks; each is a
 * sim::Callback, a trivially copyable closure stored inline, so
 * posting one never allocates. The slab grows in fixed blocks that
 * never move, and its free slots are reused. Two arenas back the
 * event queue:
 *
 *  - the "now queue": a FIFO of zero-delay events. Resumptions
 *    scheduled at the current timestamp (BoundedQueue hand-offs,
 *    DMA wakeups) are O(1) pushes that never touch the time-ordered
 *    calendar;
 *  - the "far calendar": buckets for events strictly in the future.
 *    Nodes live in a reusable slab and chain, unsorted, off an array
 *    of bucket heads indexed by floor(when / width). Dispatch loads
 *    the next occupied bucket into the "bottom", a small array sorted
 *    once per load with the latest event first, and pops from its
 *    back, so an event is moved once and a pop is a plain pop_back.
 *    An event filed into the already-loaded bucket (a short delay, or
 *    a keyed injection under a low key) goes in by binary search on
 *    (when, seq). Because floor(when / width) is monotone in `when` even
 *    under floating-point rounding, bucket order can never contradict
 *    (when, seq) order: the bottom always holds the global minimum.
 *    Every cost is amortized O(1) whatever the pending depth: the
 *    bucket count doubles when the population outgrows it, the width
 *    is re-derived from the mean dispatch gap only after the scans
 *    have wasted as many node visits as a relink costs, and a full
 *    revolution of empty buckets jumps to the earliest node the
 *    revolution itself inspected. A relink is one linear scan of the
 *    node slab (free nodes carry payload 0), not a walk of every chain.
 *
 * At depth the calendar is latency-bound, so it prefetches instead of
 * stalling: a lookahead cursor walks the chains of the next buckets
 * one node per far pop, prefetching the node it reads next and the
 * payload (callback-slab entry or coroutine frame) of each event it
 * passes, and a load prefetches the payloads of its first
 * kPrefetchWindow pops. Prefetches are hints, so dispatch order never
 * depends on them.
 *
 * Events enter three ways: schedule(delay, handle) and
 * schedule(delay, Callback) stamp the next sequence number, and
 * injectKeyed (DomainSet::postKeyed) files a callback under a
 * caller-chosen key.
 *
 * Determinism contract: every event carries its sequence number from
 * the moment it is filed, and run() always dispatches the minimum
 * (when, seq) across both arenas, so the observable order is exactly
 * the seed engine's single-priority-queue order.
 *
 * Event domains (sim/domain.hpp): a DomainSet runs one Engine per
 * domain on its own thread under a conservative-lookahead window
 * protocol. The hooks this needs — hasPending()/runUntil() plus the
 * private peek/pop/dispatch/inject primitives — are exactly the run()
 * loop split at its seams.
 *
 * Critical-path tracking: every event also carries the length of the
 * dependency chain that produced it — an event scheduled while
 * dispatching an event of depth d gets depth d+1 (events scheduled
 * outside run(), i.e. from setup code, start a chain at depth 1).
 * The maximum depth ever dispatched is the event-graph critical path:
 * no execution order, sequential or parallel, can finish in fewer
 * dependent steps. Resource-queueing delays (BandwidthResource
 * reservations) are deliberately *not* edges in this graph — they are
 * contention, not dataflow — so comparing total events to the
 * critical path separates "the algorithm ran out of parallelism"
 * from "a resource saturated". The cost is one integer store per
 * dispatch and one per schedule, cheap enough to stay always-on
 * (same budget class as the PR 6 remote-access counters).
 */
#ifndef PGCN_SIM_ENGINE_HPP
#define PGCN_SIM_ENGINE_HPP

#include <algorithm>
#include <bit>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "sim/callback.hpp"
#include "sim/diagnostics.hpp"

namespace pgcn::sim {

/** Simulated time in nanoseconds. */
using SimTime = double;

class DomainSet;

/**
 * A detached simulation process. Any function returning Process and
 * containing co_await runs as an independent simulated agent; it
 * starts executing immediately on call and parks itself in the event
 * queue whenever it awaits. Lifetime is self-managed (the coroutine
 * frame is destroyed when the body returns).
 */
struct Process
{
    struct promise_type
    {
        Process get_return_object() noexcept { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        void unhandled_exception() { std::terminate(); }
    };
};

/**
 * The event-driven simulation engine: a time-ordered queue of
 * coroutine resumptions and inline callbacks with a deterministic
 * FIFO tie-break at equal timestamps.
 */
class Engine
{
  public:
    /**
     * A blocking primitive (e.g. BoundedQueue) that can hold suspended
     * coroutines *outside* the event queue. Registered instances are
     * consulted when the event queue drains: any remaining blocked
     * waiter means the simulation deadlocked rather than finished, and
     * run() reports every waiter instead of returning silently.
     */
    struct Waitable
    {
        virtual ~Waitable() = default;

        /** Number of coroutines currently suspended on this primitive. */
        virtual size_t blockedCount() const = 0;

        /** Append one BlockedAgent record per suspended coroutine. */
        virtual void appendBlocked(std::vector<BlockedAgent> &out) const = 0;
    };

    /** Per-run watchdog budgets; 0 means unlimited. */
    struct RunLimits
    {
        /// Abort once simulated time exceeds this many nanoseconds.
        SimTime maxSimTimeNs = 0.0;
        /// Abort once the host has spent this long inside run().
        double maxWallSeconds = 0.0;
        /// Abort after dispatching this many events.
        uint64_t maxEvents = 0;
    };

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Destroy any coroutine frames still parked in the event arenas.
     * After a clean run() this is a no-op; after a SimDeadlockError or
     * SimLimitError it releases the frames of every agent that never
     * finished (frames suspended on a Waitable are destroyed by that
     * Waitable — the two sets are disjoint because a coroutine is
     * suspended at exactly one point).
     */
    ~Engine()
    {
        for (size_t i = nowHead_; i < nowQ_.size(); ++i)
            destroyFramePayload(nowQ_[i].payload);
        for (const FarNode &nd : farArena_) // free nodes carry payload 0
            destroyFramePayload(nd.payload);
        for (const Event &ev : bottom_)
            destroyFramePayload(ev.payload);
    }

    /** Track @p waitable for deadlock reporting. */
    void registerWaitable(Waitable *waitable)
    {
        waitables_.push_back(waitable);
    }

    /** Stop tracking @p waitable (no-op when not registered). */
    void
    unregisterWaitable(Waitable *waitable)
    {
        const auto it =
            std::find(waitables_.begin(), waitables_.end(), waitable);
        if (it != waitables_.end())
            waitables_.erase(it);
    }

    /**
     * Re-point a registration after the waitable moved (keeps
     * registration valid across e.g. vector reallocation of the
     * owning object).
     */
    void
    replaceWaitable(Waitable *old_waitable, Waitable *new_waitable)
    {
        std::replace(waitables_.begin(), waitables_.end(), old_waitable,
                     new_waitable);
    }

    /**
     * Awaitable that names the calling agent for diagnostics
     * (deadlock reports, snapshots). Never suspends and schedules no
     * event, so it cannot perturb event counts or dispatch order:
     * `co_await engine.announce("core0.dma");`
     */
    auto
    announce(std::string name)
    {
        struct Awaiter
        {
            Engine &engine;
            std::string name;

            bool await_ready() const noexcept { return false; }
            bool
            await_suspend(std::coroutine_handle<> h)
            {
                engine.nameAgent(h.address(), std::move(name));
                return false; // resume immediately; no event scheduled
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, std::move(name)};
    }

    /** Record a diagnostic name for the agent whose frame is @p frame. */
    void
    nameAgent(void *frame, std::string name)
    {
        agentNames_[frame] = std::move(name);
    }

    /**
     * Diagnostic name of the agent whose coroutine frame is @p frame;
     * a frame-address placeholder when it never announced itself.
     */
    std::string
    agentName(void *frame) const
    {
        const auto it = agentNames_.find(frame);
        if (it != agentNames_.end())
            return it->second;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "agent@%p", frame);
        return buf;
    }

    /**
     * Arm (or, with a default-constructed RunLimits, disarm) the
     * watchdog budgets for subsequent run() calls. The wall clock
     * starts counting here.
     */
    void
    setRunLimits(const RunLimits &limits)
    {
        limits_ = limits;
        limitsActive_ = limits.maxSimTimeNs > 0.0 ||
                        limits.maxWallSeconds > 0.0 || limits.maxEvents > 0;
        wallStart_ = std::chrono::steady_clock::now();
        wallCheckCountdown_ = kWallCheckPeriod;
    }

    /**
     * Human-readable dump of the engine state: time, event counters,
     * arena occupancies, and the blocked-agent table. Attached to
     * SimLimitError and usable ad hoc when debugging a wedged model.
     */
    std::string
    snapshot() const
    {
        std::ostringstream os;
        os << "--- engine snapshot ---\n"
           << "simulated time: " << now_ << " ns\n"
           << "events dispatched: " << eventsProcessed_
           << " (coroutine " << coroutineEvents_ << ", callback "
           << callbackEvents_ << ")\n"
           << "pending events: " << pending_ << " (now-queue "
           << (nowQ_.size() - nowHead_) << ", far calendar " << farCount_
           << "; peak " << peakQueueDepth_ << ")\n"
           << "far-calendar buckets: " << slotHeads_.size() << " (width "
           << wheelWidth_ << " ns; " << bottom_.size() << " loaded)\n"
           << "arena growths: " << arenaGrowths_ << "\n";
        std::vector<BlockedAgent> blocked;
        for (const Waitable *w : waitables_)
            w->appendBlocked(blocked);
        os << "blocked agents: " << blocked.size();
        for (const BlockedAgent &a : blocked) {
            os << "\n  - '" << a.agent << "' on '" << a.resource
               << "' since t=" << a.blockedSinceNs << " ns";
        }
        return os.str();
    }

    /** Current simulated time (ns). */
    SimTime now() const { return now_; }

    /** Total events dispatched so far. */
    uint64_t eventsProcessed() const { return eventsProcessed_; }

    /** Dispatched events that resumed a coroutine directly. */
    uint64_t coroutineEvents() const { return coroutineEvents_; }

    /** Dispatched events that went through the callback slab. */
    uint64_t callbackEvents() const { return callbackEvents_; }

    /**
     * Times any event arena had to grow its backing storage: the now
     * queue, the far-calendar slab and bottom (O(log events) from
     * cold, zero after reserveEvents() sized them), and each new
     * callback-slab block (one per kCallbackBlock concurrently
     * pending callbacks at the peak). Between growths the per-event
     * hot path never allocates.
     */
    uint64_t arenaGrowths() const { return arenaGrowths_; }

    /** Largest number of pending events observed. */
    size_t peakQueueDepth() const { return peakQueueDepth_; }

    /**
     * Length (in events) of the longest dependency chain dispatched
     * so far — the event-graph critical path. eventsProcessed() /
     * criticalPathEvents() is the run's available parallelism: an
     * upper bound on the speedup any execution of this event graph
     * can achieve.
     */
    uint64_t criticalPathEvents() const { return maxDepth_; }

    /** Events currently pending (all arenas). */
    size_t queueDepth() const { return pending_; }

    /** Events pending in *this* engine's local arenas. */
    bool
    hasPending() const
    {
        return nowHead_ < nowQ_.size() || farCount_ > 0;
    }

    /**
     * Pre-size the event arenas so a run of known magnitude never
     * reallocates: @p far bounds concurrent future events (roughly
     * the number of live agents and the bucket count, rounded up to a
     * power of two), @p zero bounds concurrent zero-delay events.
     */
    void
    reserveEvents(size_t far, size_t zero = 0)
    {
        farArena_.reserve(far);
        bottom_.reserve(far);
        nowQ_.reserve(zero ? zero : far);
        if (std::bit_ceil(far) > slotHeads_.size())
            rebuild(wheelWidth_, std::bit_ceil(far));
    }

    /**
     * Schedule the resumption of @p h at @p delay ns from now — the
     * allocation-free fast path every awaitable uses. Negative delays
     * are a bug in the caller.
     */
    void
    schedule(SimTime delay, std::coroutine_handle<> h)
    {
        push(delay, reinterpret_cast<uintptr_t>(h.address()));
    }

    /**
     * Schedule @p fn to run @p delay ns from now. The closure is
     * copied into a callback-slab slot (reused across events), so it
     * must fit Callback::kCapacity and capture only trivially
     * copyable values (a closure that reschedules itself captures
     * its own name by reference).
     */
    void
    schedule(SimTime delay, Callback fn)
    {
        push(delay, internCallback(fn));
    }

    /**
     * Run until the event queue drains. Returns the final simulated
     * time.
     *
     * @throws SimDeadlockError if the queue drained while agents were
     *         still suspended on a registered Waitable (the model
     *         wedged rather than finished).
     * @throws SimLimitError if an armed RunLimits budget was breached.
     */
    SimTime
    run()
    {
        while (hasPending())
            dispatchEvent(popMinLocal());
        // The queue drained — but "no events" only means "finished"
        // if no agent is still suspended on a blocking primitive.
        if (blockedWaiters() > 0) [[unlikely]] {
            std::vector<BlockedAgent> agents;
            appendBlockedAgents(agents);
            throw SimDeadlockError(now_, std::move(agents));
        }
        return now_;
    }

    /**
     * Dispatch local events strictly before @p horizon, then stop
     * (the conservative-lookahead window of a parallel domain; see
     * DomainSet). Events this window schedules inside the horizon are
     * dispatched too. Returns the clock after the last dispatch.
     */
    SimTime
    runUntil(SimTime horizon)
    {
        while (hasPending()) {
            const Key k = peekMinKey();
            if (!(k.when < horizon))
                break;
            dispatchEvent(popMinLocal());
        }
        return now_;
    }

    /** Coroutines suspended on this engine's registered Waitables. */
    size_t
    blockedWaiters() const
    {
        size_t blocked = 0;
        for (const Waitable *w : waitables_)
            blocked += w->blockedCount();
        return blocked;
    }

    /** Append every blocked agent on this engine's Waitables. */
    void
    appendBlockedAgents(std::vector<BlockedAgent> &out) const
    {
        for (const Waitable *w : waitables_)
            w->appendBlocked(out);
    }

    /**
     * Awaitable suspension for @p ns simulated nanoseconds.
     * Usage inside a Process coroutine: `co_await engine.delay(10.0);`
     */
    auto
    delay(SimTime ns)
    {
        struct Awaiter
        {
            Engine &engine;
            SimTime ns;

            bool await_ready() const noexcept { return ns <= 0.0; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                engine.schedule(ns, h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, ns};
    }

    /**
     * Awaitable suspension until absolute simulated time @p when
     * (no-op if @p when is in the past).
     */
    auto
    delayUntil(SimTime when)
    {
        return delay(when - now_);
    }

  private:
    friend class DomainSet;

    /**
     * Enforce armed RunLimits; called once per dispatched event
     * behind the single limitsActive branch. The wall clock is only
     * sampled every kWallCheckPeriod events so the watchdog adds no
     * syscall-class cost to the hot loop.
     */
    void
    enforceLimits()
    {
        if (limits_.maxSimTimeNs > 0.0 && now_ > limits_.maxSimTimeNs) {
            std::ostringstream os;
            os << "simulated-time budget exceeded: t=" << now_
               << " ns > limit " << limits_.maxSimTimeNs << " ns";
            throw SimLimitError(os.str(), snapshot());
        }
        if (limits_.maxEvents > 0 && eventsProcessed_ >= limits_.maxEvents) {
            std::ostringstream os;
            os << "event budget exceeded: " << eventsProcessed_
               << " events dispatched >= limit " << limits_.maxEvents;
            throw SimLimitError(os.str(), snapshot());
        }
        if (limits_.maxWallSeconds > 0.0 && --wallCheckCountdown_ == 0) {
            wallCheckCountdown_ = kWallCheckPeriod;
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wallStart_)
                    .count();
            if (elapsed > limits_.maxWallSeconds) {
                std::ostringstream os;
                os << "wall-clock budget exceeded: " << elapsed
                   << " s > limit " << limits_.maxWallSeconds << " s";
                throw SimLimitError(os.str(), snapshot());
            }
        }
    }

    /** Destroy the coroutine frame behind a frame-tagged payload. */
    static void
    destroyFramePayload(uintptr_t p)
    {
        if ((p & kCallbackTag) == 0 && p != 0) {
            std::coroutine_handle<>::from_address(
                reinterpret_cast<void *>(p))
                .destroy();
        }
    }

    /**
     * What a dispatched event does, in one word. Coroutine frames are
     * new-aligned, so the address's low bit is free for a tag: clear
     * resumes the frame at this address, kCallbackTag runs
     * callback-slab entry payload >> 1.
     */
    using Payload = uintptr_t;

    static constexpr uintptr_t kCallbackTag = 1;

    /** The 16-byte sort key; keys are stored contiguously. */
    struct Key
    {
        SimTime when;
        uint64_t seq;
    };

    /** A materialised event (now-queue slot / farPop result). */
    struct Event
    {
        SimTime when;
        uint64_t seq;
        Payload payload;
        uint32_t depth; ///< dependency-chain length of this event
    };

    /** Strict (when, seq) dispatch order — the determinism contract. */
    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Park @p fn in the callback slab; returns its tagged payload. */
    Payload
    internCallback(const Callback &fn)
    {
        if (freeCallbackSlots_.empty()) [[unlikely]]
            growCallbackSlab();
        const uintptr_t slot = freeCallbackSlots_.back();
        freeCallbackSlots_.pop_back();
        callbackAt(slot) = fn;
        return (slot << 1) | kCallbackTag;
    }

    /** Callback-slab entry @p slot; blocks never move once allocated. */
    Callback &
    callbackAt(size_t slot)
    {
        return callbackBlocks_[slot / kCallbackBlock][slot % kCallbackBlock];
    }

    /**
     * Add one kCallbackBlock-entry block to the callback slab and put
     * its slots on the free list, lowest slot on top. The free list's
     * capacity always covers every slot, so recycling a slot at
     * dispatch never allocates.
     */
    void
    growCallbackSlab()
    {
        ++arenaGrowths_;
        const size_t base = callbackBlocks_.size() * kCallbackBlock;
        callbackBlocks_.push_back(
            std::make_unique<Callback[]>(kCallbackBlock));
        const size_t slots = base + kCallbackBlock;
        if (freeCallbackSlots_.capacity() < slots)
            freeCallbackSlots_.reserve(
                std::max(slots, 2 * freeCallbackSlots_.capacity()));
        for (size_t i = kCallbackBlock; i-- > 0;)
            freeCallbackSlots_.push_back(static_cast<uint32_t>(base + i));
    }

    void
    push(SimTime delay, Payload p)
    {
        PGCN_ASSERT(delay >= 0.0, "negative event delay " << delay);
        const SimTime when = now_ + delay;
        const uint64_t seq = nextSeq_++;
        const uint32_t depth = curDepth_ + 1;
        if (delay == 0.0) {
            // Invariant: with non-negative delays every pending event
            // has when >= now, so zero-delay events are always ready
            // and FIFO-ordered among themselves — a plain queue slot.
            if (nowQ_.size() == nowQ_.capacity())
                ++arenaGrowths_;
            nowQ_.push_back(Event{when, seq, p, depth});
        } else {
            farPush(Key{when, seq}, p, depth);
        }
        ++pending_;
        peakQueueDepth_ = std::max(peakQueueDepth_, pending_);
    }

    /**
     * File an event at absolute time @p when carrying a
     * *caller-chosen* sequence number — the keyed-message path
     * (DomainSet::postKeyed). Banded keys (sim/domain.hpp) make the
     * equal-timestamp dispatch order a property of the message itself
     * instead of the scheduling history, which is what keeps one
     * engine and the threaded Parallel domains bit-identical for the
     * memory request/response protocol. Always files into the far
     * calendar: the now queue's FIFO is only correct when seq order
     * equals insertion order, which carried keys deliberately violate
     * (a when==now key lands in the sorted bottom).
     */
    void
    injectKeyed(SimTime when, Payload p, uint64_t seq, uint32_t depth)
    {
        PGCN_ASSERT(when >= now_,
                    "keyed event at t=" << when
                        << " is behind the clock t=" << now_);
        farPush(Key{when, seq}, p, depth);
        ++pending_;
        peakQueueDepth_ = std::max(peakQueueDepth_, pending_);
    }

    /**
     * Sort key of this engine's earliest local event (now queue vs far
     * calendar). Requires hasPending().
     */
    Key
    peekMinKey()
    {
        if (nowHead_ < nowQ_.size()) {
            const Event &nf = nowQ_[nowHead_];
            const Key nk{nf.when, nf.seq};
            if (farCount_ > 0) {
                const Key fk = farMinKey();
                if (before(fk, nk))
                    return fk;
            }
            return nk;
        }
        return farMinKey();
    }

    /**
     * Remove and return this engine's earliest local event — the
     * now-queue head unless a far event carries the same timestamp
     * with an earlier sequence number. Requires hasPending().
     */
    Event
    popMinLocal()
    {
        if (nowHead_ < nowQ_.size()) {
            // Zero-delay events share the clock's timestamp; a far
            // event dispatches first only if it carries the same
            // timestamp with an earlier sequence number.
            const Event &nf = nowQ_[nowHead_];
            if (farCount_ > 0 && before(farMinKey(), Key{nf.when, nf.seq}))
                return farPop();
            const Event ev = nf;
            if (++nowHead_ == nowQ_.size()) {
                nowQ_.clear();
                nowHead_ = 0;
            }
            return ev;
        }
        return farPop();
    }

    /**
     * Advance the clock to @p ev and execute it: the loop body shared
     * by run() and runUntil().
     */
    void
    dispatchEvent(const Event &ev)
    {
        // Monotonicity is the bedrock invariant: delays are
        // non-negative, so the global minimum can never precede
        // the current time. A violation means arena corruption.
        PGCN_ASSERT(ev.when >= now_,
                    "simulated time ran backwards: dispatching t="
                        << ev.when << " at t=" << now_);
        now_ = ev.when;
        if (limitsActive_) [[unlikely]] {
            try {
                enforceLimits();
            } catch (...) {
                // The run aborts with @p ev already out of the arenas,
                // where the destructor would have found its frame.
                destroyFramePayload(ev.payload);
                throw;
            }
        }
        ++eventsProcessed_;
        --pending_;
        curDepth_ = ev.depth;
        maxDepth_ = std::max<uint64_t>(maxDepth_, ev.depth);
        if ((ev.payload & kCallbackTag) == 0) {
            ++coroutineEvents_;
            std::coroutine_handle<>::from_address(
                reinterpret_cast<void *>(ev.payload))
                .resume();
        } else {
            ++callbackEvents_;
            const size_t slot = ev.payload >> 1;
            // Run in place: slab blocks never move, and the slot stays
            // taken until the call returns, so events the callback
            // schedules land in other slots.
            callbackAt(slot)();
            freeCallbackSlots_.push_back(static_cast<uint32_t>(slot));
        }
    }

    /** Absolute calendar-bucket index of @p when. Monotone in when. */
    uint64_t
    bucketOf(SimTime when) const
    {
        return static_cast<uint64_t>(when * wheelInvWidth_);
    }

    /** Bottom order: the latest (when, seq) first, the earliest last. */
    static constexpr auto later = [](const Event &a, const Event &b) {
        return before(Key{b.when, b.seq}, Key{a.when, a.seq});
    };

    /**
     * Prefetch the first lines dispatching @p p reads: its coroutine
     * frame, or its callback-slab entry, which may straddle two lines.
     * The address is selected before both prefetches: GCC 12 deletes a
     * prefetch whose address is loaded on one branch only.
     */
    void
    prefetchPayload(Payload p)
    {
        const uintptr_t at =
            (p & kCallbackTag) != 0
                ? reinterpret_cast<uintptr_t>(&callbackAt(p >> 1))
                : p;
        __builtin_prefetch(reinterpret_cast<const void *>(at));
        __builtin_prefetch(
            reinterpret_cast<const void *>(at + sizeof(Callback) - 1));
    }

    /** Take a slab node for @p ev (unlinked). */
    int32_t
    allocNode(const Event &ev)
    {
        int32_t n;
        if (farFree_ >= 0) {
            n = farFree_;
            farFree_ = farArena_[n].next;
        } else {
            if (farArena_.size() == farArena_.capacity())
                ++arenaGrowths_;
            farArena_.emplace_back();
            n = static_cast<int32_t>(farArena_.size() - 1);
        }
        farArena_[n] = FarNode{ev.when, ev.seq, ev.payload, -1, ev.depth};
        return n;
    }

    /** Chain node @p n onto its bucket's slot. */
    void
    linkNode(int32_t n)
    {
        const size_t slot =
            static_cast<size_t>(bucketOf(farArena_[n].when)) & slotMask_;
        farArena_[n].next = slotHeads_[slot];
        slotHeads_[slot] = n;
    }

    /** Put @p ev into the bottom before @p at. */
    void
    bottomInsert(std::vector<Event>::iterator at, const Event &ev)
    {
        if (bottom_.size() == bottom_.capacity())
            ++arenaGrowths_;
        bottom_.insert(at, ev);
    }

    /**
     * File an event in the far calendar. Amortized O(1): the bucket
     * count doubles once the population outgrows it (an arena growth
     * and a relink of every node, paid for by the pushes that doubled
     * it), and an event whose bucket the dispatch cursor has already
     * loaded joins the bottom at its sorted place.
     */
    void
    farPush(const Key &k, Payload p, uint32_t depth)
    {
        if (++farCount_ > slotHeads_.size()) {
            ++arenaGrowths_;
            rebuild(wheelWidth_, 2 * slotHeads_.size());
        }
        const Event ev{k.when, k.seq, p, depth};
        if (bucketOf(k.when) < cursor_) {
            bottomInsert(std::lower_bound(bottom_.begin(), bottom_.end(),
                                          ev, later),
                         ev);
        } else {
            linkNode(allocNode(ev));
        }
    }

    /**
     * Load the next occupied bucket into the (empty) bottom. Every
     * chained node's bucket is >= cursor_ (events are never scheduled
     * in the past, and earlier buckets were loaded), so the first
     * bucket holding a node of the current revolution holds the
     * global minimum. Nodes of later revolutions aliasing a scanned
     * slot stay chained; a full revolution without a hit has walked
     * every chain, so it jumps straight to the earliest bucket seen.
     * Empty buckets, alias visits and the events of an oversized
     * bucket (a long bottom) count as waste (see farPop). The loaded
     * bucket is sorted once, latest event first, and the payloads of
     * its first kPrefetchWindow pops are prefetched.
     */
    void
    farLoad()
    {
        PGCN_ASSERT(farCount_ > 0, "min of an empty far calendar");
        uint64_t earliest = ~uint64_t{0};
        size_t advanced = 0;
        while (bottom_.empty()) {
            int32_t *link = &slotHeads_[static_cast<size_t>(cursor_) &
                                        slotMask_];
            while (*link >= 0) {
                const int32_t n = *link;
                FarNode &nd = farArena_[n];
                const uint64_t bucket = bucketOf(nd.when);
                if (bucket != cursor_) {
                    earliest = std::min(earliest, bucket);
                    ++waste_;
                    link = &nd.next;
                    continue;
                }
                bottomInsert(bottom_.end(),
                             Event{nd.when, nd.seq, nd.payload, nd.depth});
                *link = nd.next;
                nd.next = farFree_;
                nd.payload = 0; // the free mark rebuild() scans for
                farFree_ = n;
            }
            ++cursor_;
            if (bottom_.empty()) {
                ++waste_;
                if (++advanced == slotHeads_.size()) {
                    cursor_ = earliest;
                    earliest = ~uint64_t{0};
                    advanced = 0;
                }
            }
        }
        if (bottom_.size() > kOversizedLoad)
            waste_ += bottom_.size();
        std::sort(bottom_.begin(), bottom_.end(), later);
        const size_t window = std::min(bottom_.size(), kPrefetchWindow);
        for (size_t i = bottom_.size() - window; i < bottom_.size(); ++i)
            prefetchPayload(bottom_[i].payload);
        if (aheadNext_ <= cursor_) { // the walk's chain was just loaded
            aheadNext_ = cursor_;
            aheadNode_ = -1;
        }
    }

    /** Sort key of the earliest pending far event. */
    Key
    farMinKey()
    {
        if (bottom_.empty())
            farLoad();
        return Key{bottom_.back().when, bottom_.back().seq};
    }

    /**
     * Remove and return the earliest pending far event, and step the
     * lookahead. Once the scans have wasted as many visits as a relink
     * of every node costs, the bucket width is re-aimed at
     * kBucketEvents mean dispatch gaps — so retuning stays amortized
     * O(1) per event.
     */
    Event
    farPop()
    {
        if (bottom_.empty())
            farLoad();
        const Event ev = bottom_.back();
        bottom_.pop_back();
        --farCount_;
        ++gapPops_;
        lastFarWhen_ = ev.when;
        lookAhead();
        if (waste_ > farCount_ + kMinRetuneWaste)
            retune();
        return ev;
    }

    /**
     * Walk the chains of the buckets after the loaded one, one node per
     * pop and at most kLookaheadBuckets buckets past the next load: read
     * the node the last step prefetched, prefetch the payload of a node
     * due in its bucket, then prefetch the node the walk reads next, so
     * the next farLoad finds both in cache. A hint only: a walk gone
     * stale costs a wasted prefetch, never order.
     */
    void
    lookAhead()
    {
        if (aheadNode_ >= 0) {
            const FarNode &nd = farArena_[aheadNode_];
            if (bucketOf(nd.when) + 1 == aheadNext_)
                prefetchPayload(nd.payload);
            aheadNode_ = nd.next;
        }
        while (aheadNode_ < 0) {
            if (aheadNext_ > cursor_ + kLookaheadBuckets)
                return;
            aheadNode_ =
                slotHeads_[static_cast<size_t>(aheadNext_++) & slotMask_];
        }
        __builtin_prefetch(&farArena_[aheadNode_]);
    }

    /**
     * Re-derive the bucket width from the mean far dispatch gap since
     * the last retune; relink only when it moved by more than 2x, so
     * an irreducible cluster of equal timestamps never thrashes.
     */
    void
    retune()
    {
        const double span = lastFarWhen_ - gapStart_;
        const double target =
            span > 0.0 ? std::clamp(kBucketEvents * span /
                                        static_cast<double>(gapPops_),
                                    1e-6, 1e9)
                       : wheelWidth_;
        waste_ = 0;
        gapPops_ = 0;
        gapStart_ = lastFarWhen_;
        if (target > 2.0 * wheelWidth_ || target < 0.5 * wheelWidth_)
            rebuild(target, slotHeads_.size());
    }

    /**
     * Relink every far event — the bottom included — into @p slots
     * buckets of @p width ns, and restart the cursor and the lookahead
     * at the clock's bucket. The bottom goes back into slab nodes,
     * then one linear scan of the slab links every live node (free
     * nodes carry payload 0): a relink streams the slab instead of
     * chasing chains, and needs no scratch memory.
     */
    void
    rebuild(double width, size_t slots)
    {
        for (const Event &ev : bottom_)
            allocNode(ev);
        bottom_.clear();
        wheelWidth_ = width;
        wheelInvWidth_ = 1.0 / width;
        slotHeads_.assign(slots, -1);
        slotMask_ = slots - 1;
        cursor_ = bucketOf(now_);
        for (size_t n = 0; n < farArena_.size(); ++n)
            if (farArena_[n].payload != 0)
                linkNode(static_cast<int32_t>(n));
        waste_ = 0;
        aheadNext_ = cursor_;
        aheadNode_ = -1;
    }

    /** One far event: sort key, payload, and intrusive bucket link.
     *  The depth field occupies what was padding — FarNode stays 32
     *  bytes, so critical-path tracking costs the calendar nothing —
     *  and 32-byte alignment keeps each node on one cache line. */
    struct alignas(32) FarNode
    {
        SimTime when;
        uint64_t seq;
        Payload payload;
        int32_t next; ///< next node in bucket chain / free list (-1 end)
        uint32_t depth; ///< dependency-chain length of this event
    };

    static constexpr size_t kInitialSlots = 1024;
    /// Callback-slab entries per block (72 B each: 18 KiB per block).
    static constexpr size_t kCallbackBlock = 256;
    /// Target events per bucket: keeps empty buckets rare and the
    /// bottom a few entries long.
    static constexpr double kBucketEvents = 4.0;
    /// A bucket loading more events than this is too wide.
    static constexpr size_t kOversizedLoad = 32;
    /// Waste floor before a retune, so tiny calendars never thrash.
    static constexpr uint64_t kMinRetuneWaste = 1024;
    /// Bottom events whose payloads are prefetched ahead of dispatch.
    static constexpr size_t kPrefetchWindow = 8;
    /// How many buckets past the next load the lookahead may run.
    static constexpr uint64_t kLookaheadBuckets = 16;

    std::vector<FarNode> farArena_;     ///< far-calendar node slab
    std::vector<int32_t> slotHeads_ =
        std::vector<int32_t>(kInitialSlots, -1); ///< bucket chain heads
    std::vector<Event> bottom_;         ///< loaded bucket, latest first
    size_t slotMask_ = kInitialSlots - 1;
    int32_t farFree_ = -1;              ///< slab free-list head
    size_t farCount_ = 0;               ///< live far events (incl. bottom)
    uint64_t cursor_ = 0;               ///< next bucket to load
    uint64_t aheadNext_ = 0;            ///< bucket the lookahead enters next
    int32_t aheadNode_ = -1;            ///< its next node (-1: chain end)
    double wheelWidth_ = 1.0;           ///< bucket width (ns)
    double wheelInvWidth_ = 1.0;
    uint64_t waste_ = 0;                ///< empty/alias visits since retune
    uint64_t gapPops_ = 0;              ///< far pops since retune
    SimTime gapStart_ = 0.0;            ///< far clock at the last retune
    SimTime lastFarWhen_ = 0.0;
    std::vector<Event> nowQ_;           ///< FIFO of zero-delay events
    size_t nowHead_ = 0;                ///< dispatch cursor into nowQ_
    /// Callback slab: fixed-size blocks, never relocated.
    std::vector<std::unique_ptr<Callback[]>> callbackBlocks_;
    std::vector<uint32_t> freeCallbackSlots_; ///< LIFO of free slots
    std::vector<Waitable *> waitables_; ///< deadlock-report registry
    std::unordered_map<void *, std::string> agentNames_;
    uint64_t arenaGrowths_ = 0;

    static constexpr uint32_t kWallCheckPeriod = 4096;

    SimTime now_ = 0.0;
    uint64_t nextSeq_ = 0;
    uint32_t curDepth_ = 0; ///< depth of the event being dispatched
    uint64_t maxDepth_ = 0; ///< longest dependency chain (critical path)
    uint64_t eventsProcessed_ = 0;
    uint64_t coroutineEvents_ = 0;
    uint64_t callbackEvents_ = 0;
    size_t pending_ = 0;
    size_t peakQueueDepth_ = 0;
    RunLimits limits_{};
    bool limitsActive_ = false;
    std::chrono::steady_clock::time_point wallStart_{};
    uint32_t wallCheckCountdown_ = kWallCheckPeriod;
};

} // namespace pgcn::sim

#endif // PGCN_SIM_ENGINE_HPP
