#include "piuma/machine.hpp"

#include <chrono>

#include "sim/diagnostics.hpp"

namespace pgcn::piuma {

Machine::Machine(const PiumaConfig &cfg_in,
                 const sim::DomainSet::Options &plan,
                 const sim::SimControls *controls)
    : domains(plan), cfg(cfg_in), memory(domains, cfg_in),
      coreStats(cfg_in.numCores)
{
    const unsigned total_mtps = cfg.numCores * cfg.mtpsPerCore;
    mtpIssue.reserve(total_mtps);
    for (unsigned m = 0; m < total_mtps; ++m)
        mtpIssue.emplace_back(engineOfCore(m / cfg.mtpsPerCore),
                              cfg.clockGhz);
    if (controls != nullptr) {
        memory.setFaultInjector(controls->faults);
        faults = controls->faults;
        domains.setRunLimits(controls->limits);
    }
}

void
Machine::attachMonitor(sim::MonitorHub &hub)
{
    // Monitors observe spans the model computes anyway and never
    // schedule events, so the simulated result stays bit-identical
    // (the determinism tests pin this).
    hub.beginRun(cfg.numCores);
    monitor = &hub;
    for (unsigned m = 0; m < static_cast<unsigned>(mtpIssue.size()); ++m)
        mtpIssue[m].attachMonitor(hub.issueTimeline(m / cfg.mtpsPerCore));
    memory.attachMonitor(hub);
}

void
Machine::recordFault(const char *what, unsigned core, unsigned slice)
{
    CoreStats &cs = coreStats[core];
    if (cs.faulted)
        return;
    cs.faulted = true;
    cs.faultSite = "core" + std::to_string(core) + " " + what +
                   " on slice " + std::to_string(slice);
    cs.faultWhenNs = engineOfCore(core).now();
}

sim::SimTime
Machine::run()
{
    const auto wall_start = std::chrono::steady_clock::now();
    const sim::SimTime makespan = domains.run();
    wallSeconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

    // The queues drained on the way out, so raising here cannot race
    // a deadlock report, and the reduction is the same for every
    // domain count and mode.
    const std::string *site = nullptr;
    sim::SimTime when = 0.0;
    auto consider = [&](bool failed, const std::string &s, sim::SimTime t) {
        if (failed && (site == nullptr || t < when)) {
            site = &s;
            when = t;
        }
    };
    for (size_t c = 0; c < coreStats.size(); ++c) {
        const CoreStats &cs = coreStats[c];
        consider(cs.faulted, cs.faultSite, cs.faultWhenNs);
        if (c < dmaEngines.size()) {
            const DmaStats &d = dmaEngines[c].stats();
            consider(d.failed, d.failedDetail, d.failedWhenNs);
        }
    }
    const PostedFault posted = memory.postedFault();
    if (posted.failed && (site == nullptr || posted.whenNs < when)) {
        fail("core" + std::to_string(posted.core) +
                 " result-row write on slice " + std::to_string(posted.slice),
             posted.whenNs);
    }
    if (site != nullptr)
        fail(*site, when);
    return makespan;
}

void
Machine::fail(const std::string &site, sim::SimTime when_ns) const
{
    throw sim::SimFaultError(
        site, when_ns,
        faults != nullptr ? faults->config().maxRetries + 1 : 1);
}

} // namespace pgcn::piuma
