/**
 * @file
 * DomainSet implementation: the conservative-lookahead window
 * protocol that runs each domain on its own thread. See domain.hpp
 * for the model-level rationale and DESIGN.md §15 for the proofs.
 */
#include "sim/domain.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace pgcn::sim {

namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

/**
 * A reusable two-phase barrier: the last arriver runs the completion
 * callback under the barrier lock, then releases everyone. The lock
 * hand-off is what makes the surrounding window protocol data-race
 * free with plain (non-atomic) shared fields: everything a worker
 * wrote before arriving happens-before everything any worker reads
 * after leaving.
 */
class Barrier
{
  public:
    explicit Barrier(unsigned count) : count_(count) {}

    template <typename Completion>
    void
    arriveAndWait(const Completion &completion)
    {
        std::unique_lock<std::mutex> lock(mu_);
        const uint64_t gen = generation_;
        if (++waiting_ == count_) {
            waiting_ = 0;
            ++generation_;
            completion();
            cv_.notify_all();
        } else {
            cv_.wait(lock, [&] { return generation_ != gen; });
        }
    }

    void
    arriveAndWait()
    {
        arriveAndWait([] {});
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    const unsigned count_;
    unsigned waiting_ = 0;
    uint64_t generation_ = 0;
};

} // namespace

DomainSet::DomainSet(const Options &opts) : lookaheadNs_(opts.lookaheadNs)
{
    const unsigned d = std::max(1u, opts.domains);
    PGCN_ASSERT(d == 1 || lookaheadNs_ > 0.0,
                "several domains need a positive lookahead");
    engines_.reserve(d);
    for (unsigned i = 0; i < d; ++i)
        engines_.push_back(std::make_unique<Engine>());
    if (d > 1) // one domain never posts across domains
        boxes_.resize(static_cast<size_t>(d) * d);
    crossPosts_.assign(d, 0);
}

DomainSet::~DomainSet()
{
    const bool deep = peakQueueDepth() >= kTrimDepth;
    engines_.clear();
#if defined(__GLIBC__)
    if (deep)
        malloc_trim(0);
#else
    (void)deep;
#endif
}

void
DomainSet::postKeyed(unsigned src_domain, unsigned dst_domain,
                     SimTime when, uint64_t keyed_seq, Callback fn)
{
    PGCN_ASSERT(keyed_seq >= kSeqBandRequest,
                "keyed post without a band bit (seq=" << keyed_seq << ")");
    if (src_domain == dst_domain) {
        Engine &e = engine(dst_domain);
        e.injectKeyed(when, e.internCallback(fn), keyed_seq,
                      e.curDepth_ + 1);
        return;
    }
    // Cross-domain: must be issued from src's worker thread during its
    // dispatch window, and must respect the lookahead the safe-window
    // proof depends on (tiny epsilon absorbs float rounding in callers
    // that compute `now + lookahead` themselves).
    Engine &src = engine(src_domain);
    PGCN_ASSERT(when + 1e-9 >= src.now() + lookaheadNs_,
                "keyed cross-domain post at t="
                    << when << " violates lookahead " << lookaheadNs_
                    << " (src clock t=" << src.now() << ")");
    const unsigned d = domains();
    boxes_[static_cast<size_t>(src_domain) * d + dst_domain].push(
        Msg{when, keyed_seq, src.curDepth_ + 1, fn});
    ++crossPosts_[src_domain];
}

void
DomainSet::drainInbox(unsigned dst, bool deliver)
{
    // Each message carries its own unique (band, entity, stamp) sort
    // key, so the order in which the mailboxes are drained never
    // decides the dispatch order: no merge is needed.
    Engine &e = engine(dst);
    const unsigned d = domains();
    for (unsigned src = 0; src < d; ++src) {
        boxes_[static_cast<size_t>(src) * d + dst].drain([&](const Msg &m) {
            if (deliver)
                e.injectKeyed(m.when, e.internCallback(m.fn), m.keyedSeq,
                              m.depth);
        });
    }
}

void
DomainSet::raiseIfBlockedAnywhere(SimTime at) const
{
    size_t blocked = 0;
    for (const auto &e : engines_)
        blocked += e->blockedWaiters();
    if (blocked == 0)
        return;
    std::vector<BlockedAgent> agents;
    for (const auto &e : engines_)
        e->appendBlockedAgents(agents);
    throw SimDeadlockError(at, std::move(agents));
}

SimTime
DomainSet::runParallel()
{
    const unsigned d = domains();

    std::vector<SimTime> next(d, kInf);
    std::vector<std::exception_ptr> errors(d);
    Barrier barrier_a(d);
    Barrier barrier_b(d);
    // Written only inside barrier_b's completion (under its lock),
    // read by workers after leaving the barrier — the lock hand-off
    // orders every access, so plain fields suffice.
    bool done = false;
    SimTime horizon = 0.0;
    std::exception_ptr budget_error;

    auto worker = [&](unsigned dom) {
        Engine &e = *engines_[dom];
        bool failed = false;
        for (;;) {
            // Barrier A: every domain finished the previous window,
            // so every mailbox this domain will drain is complete.
            barrier_a.arriveAndWait();
            if (!failed) {
                try {
                    drainInbox(dom, /*deliver=*/true);
                } catch (...) {
                    errors[dom] = std::current_exception();
                    failed = true;
                }
            }
            if (failed) {
                // Keep participating so the others can finish, but
                // discard anything still addressed here.
                drainInbox(dom, /*deliver=*/false);
            }
            next[dom] = (!failed && e.hasPending())
                            ? e.peekMinKey().when
                            : kInf;
            // Barrier B: all next-event times published; the last
            // arriver computes the safe horizon (or declares the set
            // drained — the idle-advance/null-message equivalent: an
            // idle domain publishes +inf and never blocks progress).
            barrier_b.arriveAndWait([&] {
                SimTime m = kInf;
                for (unsigned i = 0; i < d; ++i)
                    m = std::min(m, next[i]);
                if (m == kInf) {
                    done = true;
                } else {
                    horizon = m + lookaheadNs_;
                    ++windows_;
                }
                // Every worker is parked here, so the summed count is
                // stable: the event budget is a whole-run budget.
                if (maxEvents_ > 0 && eventsProcessed() > maxEvents_) {
                    budget_error = std::make_exception_ptr(budgetError());
                    done = true;
                }
            });
            if (done)
                return;
            if (failed)
                continue;
            try {
                // Dispatch everything strictly before the horizon.
                // Any cross-domain post made in here lands at
                // >= m + lookahead = horizon, i.e. outside every
                // domain's current window — that is the conservative
                // guarantee that makes the dispatch safe.
                e.runUntil(horizon);
            } catch (...) {
                errors[dom] = std::current_exception();
                failed = true;
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(d - 1);
    for (unsigned i = 1; i < d; ++i)
        threads.emplace_back(worker, i);
    worker(0);
    for (std::thread &t : threads)
        t.join();

    for (std::exception_ptr &err : errors)
        if (err)
            std::rethrow_exception(err);
    if (budget_error)
        std::rethrow_exception(budget_error);

    SimTime end = 0.0;
    for (const auto &e : engines_)
        end = std::max(end, e->now());
    raiseIfBlockedAnywhere(end);
    return end;
}

SimLimitError
DomainSet::budgetError() const
{
    std::ostringstream os;
    os << "event budget exceeded: " << eventsProcessed()
       << " events dispatched across " << domains() << " domains > limit "
       << maxEvents_;
    std::string snapshots;
    for (unsigned i = 0; i < domains(); ++i)
        snapshots += "domain " + std::to_string(i) + ":\n" +
                     engines_[i]->snapshot() + "\n";
    return SimLimitError(os.str(), snapshots);
}

SimTime
DomainSet::run()
{
    return engines_.size() == 1 ? engines_[0]->run() : runParallel();
}

void
DomainSet::setRunLimits(const Engine::RunLimits &limits)
{
    maxEvents_ = limits.maxEvents;
    for (const auto &e : engines_)
        e->setRunLimits(limits);
}

SimTime
DomainSet::now() const
{
    SimTime t = 0.0;
    for (const auto &e : engines_)
        t = std::max(t, e->now());
    return t;
}

uint64_t
DomainSet::eventsProcessed() const
{
    uint64_t total = 0;
    for (const auto &e : engines_)
        total += e->eventsProcessed();
    return total;
}

uint64_t
DomainSet::criticalPathEvents() const
{
    uint64_t depth = 0;
    for (const auto &e : engines_)
        depth = std::max(depth, e->criticalPathEvents());
    return depth;
}

size_t
DomainSet::peakQueueDepth() const
{
    size_t peak = 0;
    for (const auto &e : engines_)
        peak = std::max(peak, e->peakQueueDepth());
    return peak;
}

uint64_t
DomainSet::crossDomainPosts() const
{
    uint64_t total = 0;
    for (const uint64_t c : crossPosts_)
        total += c;
    return total;
}

} // namespace pgcn::sim
