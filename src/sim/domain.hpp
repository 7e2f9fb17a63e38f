/**
 * @file
 * Event domains over the DES core: one simulated machine split into
 * independently dispatched shards.
 *
 * A DomainSet splits one simulated machine into N event domains —
 * one per PIUMA node or DRAM-slice group — each backed by its own
 * Engine (its own calendar, now queue and waitables). One domain is
 * simply the serial engine: run() is Engine::run(), and it is the
 * oracle every multi-domain run is checked against. More than one
 * domain runs each on its own std::thread under a
 * conservative-lookahead window protocol (Chandy–Misra in barrier
 * form). Let m be the minimum next-event time across all domains and
 * L the lookahead — the minimum latency of any cross-domain
 * interaction (for PIUMA, the minimum inter-node network latency from
 * PiumaConfig). Every domain may safely dispatch all events strictly
 * before H = m + L: any message sent during the window is sent at
 * time >= m and arrives at >= m + L = H, so nothing dispatched inside
 * the window can be invalidated. Cross-domain messages travel through
 * bounded SPSC mailboxes (one per ordered domain pair) and are filed
 * into the destination's calendar at each window boundary. An idle
 * domain publishes +inf as its next-event time and keeps
 * participating in the barriers — the null-message/idle-advance path
 * — so a neighbor going quiet can never deadlock the set.
 *
 * Why the PIUMA model may run on many domains: since the memory
 * system moved to a two-phase request/response protocol, every
 * cross-domain interaction is a posted event bearing real modeled
 * latency — the DGAS network hop on requests and responses, the
 * timeout margin on failure notices — so the model's lookahead bound
 * (MemorySystem::modelLookaheadNs) is positive and threaded domains
 * are legal. The set has one message kind, postKeyed: every request,
 * response and failure notice carries a canonical (band, entity,
 * stamp) sort key assigned from per-entity counters (kSeqBandRequest
 * / kSeqBandResponse below), so the order at equal timestamps is a
 * property of the messages themselves — not of which counter stamped
 * them or of the order the mailboxes are drained in — and is the same
 * at any domain count. Ordinary events, memory-response wakes
 * included, are plain engine schedules: their small engine-local
 * sequence numbers always dispatch before keyed messages at the same
 * timestamp. See DESIGN.md §15 for the lookahead-bound derivation and
 * the domain-plan rules.
 */
#ifndef PGCN_SIM_DOMAIN_HPP
#define PGCN_SIM_DOMAIN_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/engine.hpp"

namespace pgcn::sim {

/**
 * Canonical sequence-key bands for keyed cross-domain messages.
 * Engine-local sequence counters never reach 2^62 in practice, so:
 *
 *   band 0 (seq < 2^62)  — ordinary events; dispatch first at equal
 *                          timestamps, ordered by their engine-local
 *                          creation order (identical at any count);
 *   kSeqBandRequest      — memory request arrivals, keyed by
 *                          (requester entity, per-entity stamp): the
 *                          arrival-order arbitration rule;
 *   kSeqBandResponse     — responses / failure notices, keyed by
 *                          (serving entity, per-entity stamp).
 *
 * Retried requests re-carry their original key, giving an in-flight
 * retry arbitration priority over fresher requests that arrive at
 * the same instant (attempts of one request are serial in time, so a
 * key is never pending twice).
 */
constexpr uint64_t kSeqBandRequest = uint64_t{1} << 62;
constexpr uint64_t kSeqBandResponse = uint64_t{1} << 63;
/// Entity id field width: bits [kSeqEntityShift, 62) — 2^18 entities.
constexpr unsigned kSeqEntityShift = 44;

/** Compose a keyed sequence number: band | entity | stamp. */
inline uint64_t
makeKeyedSeq(uint64_t band, unsigned entity, uint64_t stamp)
{
    PGCN_ASSERT(entity < (1u << (62 - kSeqEntityShift)),
                "keyed-seq entity " << entity << " out of range");
    PGCN_ASSERT(stamp < (uint64_t{1} << kSeqEntityShift),
                "keyed-seq stamp overflow");
    return band | (static_cast<uint64_t>(entity) << kSeqEntityShift) |
           stamp;
}

/**
 * A set of event domains simulating one machine. Owns one Engine per
 * domain plus the cross-domain plumbing (mailboxes + barriers).
 */
class DomainSet
{
  public:
    struct Options
    {
        /// Number of event domains (>= 1; 0 clamps to 1).
        unsigned domains = 1;
        /// Minimum cross-domain latency (ns): the safe-window margin.
        /// Must be positive when domains > 1.
        double lookaheadNs = 1.0;
    };

    explicit DomainSet(const Options &opts);

    /** A set of @p domains domains with the default 1 ns lookahead. */
    explicit DomainSet(unsigned domains) : DomainSet(Options{domains, 1.0})
    {
    }

    DomainSet() : DomainSet(1u) {}

    /**
     * Destroy the engines. After a deep run (see kTrimDepth) the freed
     * calendars are handed back to the OS: glibc keeps freed heap
     * resident, so a long sweep's resident set would otherwise track
     * the sum of its past calendars' fragments, not its live runs.
     */
    ~DomainSet();

    DomainSet(const DomainSet &) = delete;
    DomainSet &operator=(const DomainSet &) = delete;

    /** Number of domains. */
    unsigned
    domains() const
    {
        return static_cast<unsigned>(engines_.size());
    }

    double lookaheadNs() const { return lookaheadNs_; }

    /** The engine backing domain @p d. */
    Engine &
    engine(unsigned d)
    {
        PGCN_ASSERT(d < engines_.size(), "domain " << d << " out of range");
        return *engines_[d];
    }

    const Engine &
    engine(unsigned d) const
    {
        PGCN_ASSERT(d < engines_.size(), "domain " << d << " out of range");
        return *engines_[d];
    }

    /**
     * Run the set until every domain's queue drains. Returns the
     * final simulated time (the maximum domain clock).
     *
     * @throws SimDeadlockError naming blocked agents *across all
     *         domains* when the queues drained with agents still
     *         suspended on any domain's waitables.
     * @throws SimLimitError when an armed budget is breached (the
     *         event budget counts events summed over all domains), or
     *         anything a dispatched event throws.
     */
    SimTime run();

    /**
     * Deliver @p fn to domain @p dst_domain at absolute time @p when
     * (not before dst's clock) carrying the canonical sequence key
     * @p keyed_seq (see the band constants above). The carried key,
     * not the injection order, decides the message's equal-timestamp
     * dispatch order, so it is identical at any domain count by
     * construction. A same-domain post files the event directly; a
     * cross-domain post copies the closure into the (src, dst)
     * mailbox — it must be called from src's worker thread, and
     * @p when must respect the lookahead:
     * when >= src clock + lookaheadNs.
     */
    void postKeyed(unsigned src_domain, unsigned dst_domain, SimTime when,
                   uint64_t keyed_seq, Callback fn);

    /**
     * Arm watchdog budgets on every domain. The simulated-time and
     * wall budgets trip per domain; the event budget is also checked
     * against the summed count at every window barrier, so a D-domain
     * run dispatches no more than a serial one may (a single domain
     * over the budget trips it at once, inside its window).
     */
    void setRunLimits(const Engine::RunLimits &limits);

    /** Current simulated time (the maximum domain clock). */
    SimTime now() const;

    /** Total events dispatched across the set. */
    uint64_t eventsProcessed() const;

    /**
     * Longest dependency chain dispatched anywhere in the set (the
     * event-graph critical path). Every message carries its depth
     * across domain boundaries, so the value is identical at any
     * domain count.
     */
    uint64_t criticalPathEvents() const;

    /**
     * High-water mark of pending events: the maximum per-domain peak.
     * Above one domain it depends on host scheduling, so it is
     * deliberately excluded from cross-count differential checks.
     */
    size_t peakQueueDepth() const;

    /**
     * Cross-domain posts delivered so far. It depends on the domain
     * count, so it is a host field of SpmmRunStats (like wallSeconds)
     * and stays out of telemetry counters, digests and checkpoints,
     * which must be bit-identical across `--domains N`.
     */
    uint64_t crossDomainPosts() const;

    /**
     * Window-protocol barrier rounds run so far: one per dispatch
     * window (0 on one domain). A host field like crossDomainPosts().
     */
    uint64_t windows() const { return windows_; }

  private:
    /**
     * A cross-domain message parked in a mailbox: the closure travels
     * by value (a Callback is trivially copyable), so posting across
     * domains allocates nothing outside the mailbox's own storage.
     */
    struct Msg
    {
        SimTime when;
        uint64_t keyedSeq; ///< carried sequence key: the dispatch tiebreak
        uint32_t depth;
        Callback fn;
    };

    /**
     * Bounded SPSC mailbox for one ordered (src, dst) domain pair: a
     * fixed ring for the common case plus a spill vector so a bursty
     * window can never drop or block. The window protocol guarantees
     * the producer (src's thread, during a dispatch window) and the
     * consumer (dst's thread, during the post-barrier drain) never
     * run concurrently, and the barrier's mutex orders their memory
     * accesses — plain indices, no atomics needed.
     */
    class Mailbox
    {
      public:
        void
        push(const Msg &m)
        {
            if (size_ < kCapacity)
                ring_[size_++] = m;
            else
                spill_.push_back(m);
        }

        /** Hand every parked message to @p fn, then empty the box. */
        template <typename Fn>
        void
        drain(const Fn &fn)
        {
            for (size_t i = 0; i < size_; ++i)
                fn(ring_[i]);
            for (const Msg &m : spill_)
                fn(m);
            size_ = 0;
            spill_.clear();
        }

      private:
        static constexpr size_t kCapacity = 256;
        std::vector<Msg> ring_ = std::vector<Msg>(kCapacity);
        size_t size_ = 0;
        std::vector<Msg> spill_;
    };

    SimTime runParallel();

    /** The summed event-budget breach, with every domain's snapshot. */
    SimLimitError budgetError() const;

    /**
     * Drain every mailbox addressed to @p dst into its engine, or with
     * @p deliver false discard the messages (failed-domain path).
     */
    void drainInbox(unsigned dst, bool deliver);

    /** Throw SimDeadlockError if any domain still has blocked agents. */
    void raiseIfBlockedAnywhere(SimTime at) const;

    /// Peak pending events (~32 bytes each) from which destruction
    /// returns freed heap to the OS.
    static constexpr size_t kTrimDepth = size_t{1} << 15;

    double lookaheadNs_;
    uint64_t maxEvents_ = 0; ///< summed event budget; 0 = unlimited
    std::vector<std::unique_ptr<Engine>> engines_;
    std::vector<Mailbox> boxes_;       ///< [src * D + dst]
    std::vector<uint64_t> crossPosts_; ///< per-executing-domain tally
    uint64_t windows_ = 0;             ///< barrier rounds (see windows())
};

} // namespace pgcn::sim

#endif // PGCN_SIM_DOMAIN_HPP
