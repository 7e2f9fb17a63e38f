/**
 * @file
 * Deterministic, seeded fault injection for the timing model.
 *
 * Real hardware never delivers the datasheet numbers cycle for cycle:
 * DRAM refresh steals rank time, network links retrain, DMA engines
 * hiccup on descriptor fetches. The simulator's conclusions (scaling
 * curves, bottleneck attribution) should be robust to such jitter —
 * and the simulator itself must not wedge or violate its conservation
 * invariants when timings move. FaultInjector perturbs selected model
 * latencies/service durations multiplicatively with a seeded
 * splitmix64 stream, so a perturbed run is bit-reproducible given the
 * same seed and completely absent (identical event stream to the
 * unperturbed engine) when no injector is attached.
 *
 * A null injector pointer costs one predictable branch on the access
 * path and nothing else.
 */
#ifndef PGCN_SIM_FAULT_HPP
#define PGCN_SIM_FAULT_HPP

#include <atomic>
#include <cstdint>

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace pgcn::sim {

class MonitorHub;

/**
 * Fault-injection parameters. Two families share one seeded stream:
 *
 *  - Jitters perturb a target value v multiplicatively into
 *    [v*(1-j), v*(1+j)]; 0 disables that class. Jitters must lie in
 *    [0, 1) so perturbed durations stay positive.
 *  - Drop rates are per-event Bernoulli probabilities for *hard*
 *    faults: a dropped memory transaction (response lost after DRAM
 *    service), a lost remote-network packet, a failed DMA descriptor,
 *    and a stuck hardware context at thread start. Rates lie in
 *    [0, 1]; 1 is legal (every event fails — useful for forcing the
 *    unrecoverable path in tests).
 *
 * Recovery policy knobs describe the modeled protocol the PIUMA
 * programs run when a hard fault fires: a timeout armed on issue,
 * exponential backoff between re-issues, and a bounded retry budget
 * after which the fault is unrecoverable (typed SimFaultError).
 */
struct FaultConfig
{
    /// Seed of the deterministic perturbation stream.
    uint64_t seed = 1;
    /// Jitter on the DRAM access latency (refresh interference).
    double dramLatencyJitter = 0.0;
    /// Jitter on slice/port service durations (effective-bandwidth
    /// wobble under refresh and scheduling noise).
    double serviceRateJitter = 0.0;
    /// Jitter on the remote-network one-way latency (link retrain,
    /// adaptive routing detours).
    double networkLatencyJitter = 0.0;
    /// Jitter on the DMA descriptor dispatch overhead.
    double dmaOverheadJitter = 0.0;

    /// Per-transaction probability that a DRAM slice drops the
    /// response after service (refresh collision, ECC retry storm).
    double dramDropRate = 0.0;
    /// Additional per-transaction drop probability for *remote*
    /// accesses (HyperX packet lost in a link retrain window).
    double netDropRate = 0.0;
    /// Per-descriptor probability that a DMA engine faults on fetch
    /// or execution and must re-issue the descriptor.
    double dmaDropRate = 0.0;
    /// Per-thread probability that a hardware context is stuck at
    /// start and needs a watchdog reset before issuing work.
    double stuckCoreRate = 0.0;

    /// Timeout armed when a request is issued; a dropped response is
    /// detected this long after issue.
    double timeoutNs = 500.0;
    /// Base backoff before the first re-issue; doubles per retry.
    double backoffNs = 100.0;
    /// Re-issue budget per request/descriptor. Attempt maxRetries+1
    /// failing makes the fault unrecoverable (SimFaultError).
    unsigned maxRetries = 8;
    /// Watchdog reset time for a stuck hardware context.
    double stuckResetNs = 10000.0;

    /** True when at least one fault class is enabled. */
    bool
    any() const
    {
        return dramLatencyJitter > 0.0 || serviceRateJitter > 0.0 ||
               networkLatencyJitter > 0.0 || dmaOverheadJitter > 0.0 ||
               anyDrops();
    }

    /** True when at least one *hard* fault class is enabled. */
    bool
    anyDrops() const
    {
        return dramDropRate > 0.0 || netDropRate > 0.0 ||
               dmaDropRate > 0.0 || stuckCoreRate > 0.0;
    }

    /** Throws ConfigError on out-of-range parameters. */
    void
    validate() const
    {
        checkJitter(dramLatencyJitter, "fault.dramLatencyJitter");
        checkJitter(serviceRateJitter, "fault.serviceRateJitter");
        checkJitter(networkLatencyJitter, "fault.networkLatencyJitter");
        checkJitter(dmaOverheadJitter, "fault.dmaOverheadJitter");
        check::probability(dramDropRate, "fault.dramDropRate");
        check::probability(netDropRate, "fault.netDropRate");
        check::probability(dmaDropRate, "fault.dmaDropRate");
        check::probability(stuckCoreRate, "fault.stuckCoreRate");
        check::positive(timeoutNs, "fault.timeoutNs");
        check::nonNegative(backoffNs, "fault.backoffNs");
        check::positive(stuckResetNs, "fault.stuckResetNs");
    }

  private:
    static void
    checkJitter(double j, const char *name)
    {
        check::nonNegative(j, name);
        if (j >= 1.0) {
            PGCN_THROW(ConfigError,
                       name << " must be < 1 (got " << j
                            << "): a full-amplitude jitter could drive "
                               "a duration to zero or negative");
        }
    }
};

class FaultStream;

/**
 * The seeded perturbation stream. One injector is shared by the
 * single-threaded hooks of one simulation run (pre-run stuck-core
 * draws, the dense/walk models); the sharded memory/DMA paths fork
 * per-entity FaultStream children instead (see fork()), so that each
 * event domain consumes only its own streams and the draw order is
 * independent of the domain count and execution mode.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg)
        : cfg_(cfg), state_(cfg.seed)
    {
        cfg_.validate();
        // Warm the state so seed 0 / small seeds decorrelate.
        next();
    }

    /** The active configuration. */
    const FaultConfig &config() const { return cfg_; }

    /** Perturbation draws consumed so far, across every forked
     * per-entity stream (relaxed tally; the total is deterministic,
     * only the interleaving of increments is not). */
    uint64_t
    draws() const
    {
        return draws_ + childDraws_.load(std::memory_order_relaxed);
    }

    /** Perturbed DRAM access latency. */
    double
    dramLatency(double ns)
    {
        return jitter(ns, cfg_.dramLatencyJitter);
    }

    /** Perturbed bandwidth service duration (slice or port). */
    double
    serviceDuration(double ns)
    {
        return jitter(ns, cfg_.serviceRateJitter);
    }

    /** Perturbed remote-network one-way latency. */
    double
    networkLatency(double ns)
    {
        return jitter(ns, cfg_.networkLatencyJitter);
    }

    /** Perturbed DMA descriptor dispatch overhead. */
    double
    dmaOverhead(double ns)
    {
        return jitter(ns, cfg_.dmaOverheadJitter);
    }

    /**
     * Did a memory transaction lose its response? Remote accesses are
     * additionally exposed to the network drop class. A disabled class
     * (rate 0) consumes no draws, preserving the stream — and thus the
     * timings of every other class — exactly.
     */
    bool
    dropTransaction(bool remote)
    {
        bool dropped = bernoulli(cfg_.dramDropRate);
        if (remote)
            dropped = bernoulli(cfg_.netDropRate) || dropped;
        return dropped;
    }

    /** Did a DMA descriptor fault on fetch/execution? */
    bool dropDescriptor() { return bernoulli(cfg_.dmaDropRate); }

    /** Is this hardware context stuck at start (watchdog reset)? */
    bool stuckCore() { return bernoulli(cfg_.stuckCoreRate); }

    /**
     * Derive an independent per-entity draw stream. The child's state
     * depends only on (seed, salt), never on how many draws the parent
     * or any sibling has consumed — the property that makes sharded
     * fault draws invariant across domain counts and execution modes.
     * Salts must be unique per (entity, draw-site class); see
     * piuma/memory.cpp for the salt layout the model uses.
     */
    FaultStream fork(uint64_t salt) const;

    /**
     * Backoff before re-issue number @p attempt (0-based): exponential
     * doubling from the configured base, capped so a deep retry chain
     * cannot overflow the simulated clock.
     */
    double
    backoffDelay(unsigned attempt) const
    {
        const double scale =
            static_cast<double>(uint64_t{1} << (attempt < 32 ? attempt : 32));
        return cfg_.backoffNs * scale;
    }

  private:
    /** One Bernoulli draw; consumes stream state only when p > 0. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        ++draws_;
        return nextUnit() < p;
    }

    /** v -> v * (1 + j * u), u uniform in [-1, 1). No-op when j == 0. */
    double
    jitter(double v, double j)
    {
        if (j <= 0.0)
            return v;
        ++draws_;
        const double u = 2.0 * nextUnit() - 1.0;
        return v * (1.0 + j * u);
    }

    /** splitmix64 step. */
    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1). */
    double nextUnit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    FaultConfig cfg_;
    uint64_t state_;
    uint64_t draws_ = 0;
    /// Draws consumed by forked FaultStreams (see fork()); mutable +
    /// atomic because fork() is const and streams draw from their
    /// owning domains' threads in Parallel mode.
    mutable std::atomic<uint64_t> childDraws_{0};
};

/**
 * A forked per-entity perturbation stream (see FaultInjector::fork).
 * Holds a reference to the parent's configuration plus its own
 * splitmix64 state; draw semantics match the parent exactly. One
 * stream is owned and consumed by exactly one event domain, so the
 * sharded model never races on draw state and every stream's sequence
 * depends only on that entity's own deterministic dispatch order.
 */
class FaultStream
{
  public:
    FaultStream(const FaultConfig &cfg, uint64_t state,
                std::atomic<uint64_t> *draw_tally = nullptr)
        : cfg_(&cfg), state_(state), drawTally_(draw_tally)
    {
        next(); // decorrelate small/nearby fork salts
    }

    const FaultConfig &config() const { return *cfg_; }

    /** Perturbed DRAM access latency. */
    double dramLatency(double ns) { return jitter(ns, cfg_->dramLatencyJitter); }

    /** Perturbed bandwidth service duration (slice or port). */
    double
    serviceDuration(double ns)
    {
        return jitter(ns, cfg_->serviceRateJitter);
    }

    /** Perturbed remote-network one-way latency. */
    double
    networkLatency(double ns)
    {
        return jitter(ns, cfg_->networkLatencyJitter);
    }

    /** Perturbed DMA descriptor dispatch overhead. */
    double dmaOverhead(double ns) { return jitter(ns, cfg_->dmaOverheadJitter); }

    /** Did a memory transaction lose its response? (See parent.) */
    bool
    dropTransaction(bool remote)
    {
        bool dropped = bernoulli(cfg_->dramDropRate);
        if (remote)
            dropped = bernoulli(cfg_->netDropRate) || dropped;
        return dropped;
    }

    /** Did a DMA descriptor fault on fetch/execution? */
    bool dropDescriptor() { return bernoulli(cfg_->dmaDropRate); }

    /** Backoff before re-issue @p attempt; same policy as the parent. */
    double
    backoffDelay(unsigned attempt) const
    {
        const double scale =
            static_cast<double>(uint64_t{1} << (attempt < 32 ? attempt : 32));
        return cfg_->backoffNs * scale;
    }

  private:
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        tally();
        return nextUnit() < p;
    }

    double
    jitter(double v, double j)
    {
        if (j <= 0.0)
            return v;
        tally();
        const double u = 2.0 * nextUnit() - 1.0;
        return v * (1.0 + j * u);
    }

    void
    tally()
    {
        if (drawTally_ != nullptr)
            drawTally_->fetch_add(1, std::memory_order_relaxed);
    }

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    double nextUnit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    const FaultConfig *cfg_;
    uint64_t state_;
    std::atomic<uint64_t> *drawTally_;
};

inline FaultStream
FaultInjector::fork(uint64_t salt) const
{
    // Mix seed and salt through one splitmix step so children of
    // adjacent salts (entity ids) start decorrelated. Independent of
    // state_: forking never consumes parent draws.
    uint64_t z = cfg_.seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return FaultStream(cfg_, z ^ (z >> 31), &childDraws_);
}

/**
 * How a model run executes its event domains (see
 * MemorySystem::domainPlan); defined here (not in domain.hpp) so
 * SimControls stays includable without the DomainSet machinery.
 */
enum class DomainMode
{
    /// One serial engine — the bit-identity oracle. `domains > 1`
    /// with this mode is a ConfigError.
    Sequenced,
    /// One thread per domain under conservative-lookahead windows.
    /// Requires the model's lookahead bound to be positive; results
    /// are bit-identical to Sequenced by the keyed-seq construction.
    Parallel,
    /// Parallel when the lookahead bound is positive, one engine
    /// otherwise. An attached monitor hub shards with the run and
    /// never changes the plan.
    Auto,
};

/**
 * Optional per-run controls bundled so simulation entry points keep
 * one trailing parameter: fault injection, watchdog budgets, and
 * occupancy monitoring.
 */
struct SimControls
{
    /// Perturbation stream; null disables fault injection entirely.
    FaultInjector *faults = nullptr;
    /// Watchdog budgets applied to the run; zeros mean unlimited.
    Engine::RunLimits limits{};
    /// Occupancy/stall monitor; null disables span tracking. The run
    /// calls MonitorHub::beginRun and wires every resource itself.
    MonitorHub *monitor = nullptr;
    /// Event domains to shard the simulated machine into (>= 1; more
    /// than one needs Parallel or Auto mode). 0 means "auto": derive
    /// the count from the simulated die count and the host's
    /// hardware concurrency (see DESIGN.md §15). Output is
    /// bit-identical for any value (see sim/domain.hpp).
    unsigned domains = 1;
    /// Execution mode for the domain set (see DomainMode).
    DomainMode domainMode = DomainMode::Sequenced;
};

} // namespace pgcn::sim

#endif // PGCN_SIM_FAULT_HPP
