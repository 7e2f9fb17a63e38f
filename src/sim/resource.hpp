/**
 * @file
 * Shared-resource primitives for the discrete-event simulator.
 *
 * BandwidthResource models a pipelined link or memory controller with
 * a fixed service rate using next-free-time semantics: each request
 * reserves a contiguous service interval; a request arriving while
 * the resource is busy queues behind the in-flight transfers. This is
 * the standard analytic treatment of a bandwidth-limited DRAM channel
 * and captures queueing delay under contention without modelling
 * individual DRAM commands.
 */
#ifndef PGCN_SIM_RESOURCE_HPP
#define PGCN_SIM_RESOURCE_HPP

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "sim/engine.hpp"
#include "sim/monitor.hpp"

namespace pgcn::sim {

/**
 * A service resource with a fixed rate (units per nanosecond).
 * Typical unit is bytes (memory controller, network link) but
 * instructions work too (MTP issue slots).
 */
class BandwidthResource
{
  public:
    /**
     * @param engine Owning simulation engine.
     * @param rate Service rate in units per ns; must be positive.
     * @param name Diagnostic name (snapshots, fault reports).
     */
    BandwidthResource(Engine &engine, double rate,
                      std::string name = "bandwidth")
        : engine_(engine), rate_(rate), name_(std::move(name))
    {
        PGCN_ASSERT(rate > 0.0, "resource rate must be positive");
    }

    /** Service rate in units/ns. */
    double rate() const { return rate_; }

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    /**
     * Reserve a service interval for @p amount units and return the
     * absolute time at which service completes. Does not suspend;
     * pair with Engine::delayUntil to wait for completion.
     *
     * @param amount Units to service (>= 0).
     * @param earliest_start Absolute time before which service cannot
     *        begin (e.g. a request still in flight on the network);
     *        defaults to "now".
     */
    SimTime
    reserve(double amount, SimTime earliest_start = 0.0)
    {
        return reserveFor(amount, amount / rate_, earliest_start);
    }

    /**
     * reserve() with the service duration already divided out. For
     * callers that issue many reservations of the same size (the
     * striped DGAS access path), this hoists the floating-point
     * division out of the per-slice loop; @p duration must equal
     * amount / rate().
     */
    SimTime
    reserveFor(double amount, SimTime duration,
               SimTime earliest_start = 0.0)
    {
        PGCN_ASSERT(amount >= 0.0, "negative reservation " << amount);
        const SimTime start =
            std::max({engine_.now(), earliest_start, nextFree_});
        nextFree_ = start + duration;
        busyTime_ += duration;
        totalUnits_ += amount;
        ++requests_;
        // The (start, nextFree_) pair is exactly the busy span an
        // occupancy monitor wants; recording it cannot affect timing.
        if (monitor_ != nullptr) [[unlikely]]
            monitor_->addSpan(start, nextFree_);
        return nextFree_;
    }

    /**
     * Mirror every reservation's busy span onto @p timeline (pass
     * nullptr to detach). One predictable branch when unattached.
     */
    void
    attachMonitor(Timeline *timeline)
    {
        monitor_ = timeline;
    }

    /**
     * Awaitable: reserve @p amount and suspend until service
     * completes (queueing + transfer, not including any downstream
     * latency the caller adds).
     */
    auto
    transfer(double amount)
    {
        return engine_.delayUntil(reserve(amount));
    }

    /** Earliest time a new request would start service. */
    SimTime nextFree() const { return nextFree_; }

    /** Cumulative busy time (ns) across all reservations. */
    double busyTime() const { return busyTime_; }

    /** Cumulative units serviced. */
    double totalUnits() const { return totalUnits_; }

    /** Number of reservations made. */
    uint64_t requests() const { return requests_; }

    /**
     * Fraction of [0, end] this resource spent servicing requests.
     *
     * @param end Observation-window end (usually the makespan).
     */
    double
    utilization(SimTime end) const
    {
        return end > 0.0 ? busyTime_ / end : 0.0;
    }

  private:
    Engine &engine_;
    double rate_;
    std::string name_;
    Timeline *monitor_ = nullptr; ///< busy-span sink (occupancy)
    SimTime nextFree_ = 0.0;
    double busyTime_ = 0.0;
    double totalUnits_ = 0.0;
    uint64_t requests_ = 0;
};

} // namespace pgcn::sim

#endif // PGCN_SIM_RESOURCE_HPP
