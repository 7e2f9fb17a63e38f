#include "piuma/memory.hpp"

#include <algorithm>
#include <string>
#include <thread>


namespace pgcn::piuma {

MemorySystem::MemorySystem(sim::DomainSet &domains, const PiumaConfig &cfg)
    : domains_(domains), cfg_(cfg), numCores_(cfg.numCores),
      domainCount_(domains.domains())
{
    cfg.validate();
    PGCN_ASSERT(domainCount_ >= 1 &&
                    (domainCount_ <= numCores_ || numCores_ == 0),
                "domain count " << domainCount_ << " exceeds core count "
                                << numCores_);
    slices_.reserve(cfg.numCores);
    netPorts_.reserve(cfg.numCores);
    dieOf_.reserve(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        // Each slice and its port belong to the domain that owns core
        // c; reservations only ever happen from that domain's thread.
        sim::Engine &owner = domains_.engine(domainOf(c));
        slices_.emplace_back(owner, cfg.effectiveSliceBandwidth());
        netPorts_.emplace_back(owner, cfg.netPortBandwidthGBps);
        dieOf_.push_back(c / cfg.coresPerDie);
    }
    issueShards_.resize(cfg.numCores);
    sliceShards_.resize(cfg.numCores);
    parked_.reserve(domainCount_);
    for (unsigned d = 0; d < domainCount_; ++d)
        parked_.push_back(std::make_unique<ParkedWaiters>(domains_.engine(d)));
    dramLatencyNs_ = cfg.effectiveDramLatencyNs();
    sliceRate_ = cfg.effectiveSliceBandwidth();
    portRate_ = cfg.netPortBandwidthGBps;
}

bool
MemorySystem::dieAligned(const PiumaConfig &cfg, unsigned domains)
{
    // Domain d's first core is the least c with c * D / N >= d.
    for (unsigned d = 1; d < domains; ++d) {
        const uint64_t first =
            (static_cast<uint64_t>(d) * cfg.numCores + domains - 1) /
            domains;
        if (first % cfg.coresPerDie != 0)
            return false;
    }
    return true;
}

double
MemorySystem::modelLookaheadNs(const PiumaConfig &cfg, unsigned domains,
                               const sim::FaultConfig *faults)
{
    if (cfg.numCores <= 1)
        return std::numeric_limits<double>::infinity();
    const bool multi_die = cfg.numCores > cfg.coresPerDie;
    const double min_net =
        multi_die ? std::min(cfg.netSameDieNs, cfg.netCrossDieNs)
                  : cfg.netSameDieNs;
    const double max_net =
        multi_die ? std::max(cfg.netSameDieNs, cfg.netCrossDieNs)
                  : cfg.netSameDieNs;
    const double hop = domains > 1 && dieAligned(cfg, domains)
                           ? cfg.netCrossDieNs
                           : min_net;
    const double jitter =
        faults != nullptr ? faults->networkLatencyJitter : 0.0;
    double bound = hop * (1.0 - jitter);
    if (faults != nullptr &&
        (faults->dramDropRate > 0.0 || faults->netDropRate > 0.0)) {
        // A failure notice travels at detect = issue + timeout while
        // the slice's clock sits at issue + net_in: the edge is the
        // timeout minus the worst-case already-paid request hop.
        bound = std::min(bound,
                         faults->timeoutNs - max_net * (1.0 + jitter));
    }
    return bound;
}

unsigned
MemorySystem::hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
MemorySystem::autoDomainCount(const PiumaConfig &cfg, unsigned host_threads)
{
    const unsigned dies =
        (cfg.numCores + cfg.coresPerDie - 1) / cfg.coresPerDie;
    unsigned d = std::min(dies, std::max(1u, host_threads));
    while (dies % d != 0)
        --d;
    return d;
}

sim::DomainSet::Options
MemorySystem::domainPlan(const PiumaConfig &cfg,
                         const sim::SimControls *controls)
{
    const sim::DomainMode want = controls != nullptr
                                     ? controls->domainMode
                                     : sim::DomainMode::Sequenced;
    const unsigned requested = controls != nullptr ? controls->domains : 1;
    sim::DomainSet::Options one;
    if (want == sim::DomainMode::Sequenced) {
        if (requested > 1) {
            PGCN_THROW(ConfigError,
                       "--domains " << requested
                                    << " needs DomainMode::Parallel or "
                                       "Auto: Sequenced runs one engine");
        }
        return one;
    }
    const unsigned domains =
        std::min(std::max(1u, requested != 0 ? requested
                                             : autoDomainCount(cfg)),
                 cfg.numCores);
    const double lookahead = modelLookaheadNs(
        cfg, domains,
        controls->faults != nullptr ? &controls->faults->config()
                                    : nullptr);
    if (want == sim::DomainMode::Parallel && !(lookahead > 0.0)) {
        PGCN_THROW(ConfigError,
                   "--domains " << requested
                                << " is illegal for this config: the "
                                   "model lookahead bound is "
                                << lookahead
                                << " ns (timeout must exceed the "
                                   "worst-case request hop; network "
                                   "jitter must leave the minimum hop "
                                   "positive; --domains auto falls "
                                   "back to one engine)");
    }
    if (domains == 1 || !(lookahead > 0.0))
        return one;
    // +inf (a single core) never gets here: domains <= numCores.
    return {domains, lookahead};
}

void
MemorySystem::setFaultInjector(sim::FaultInjector *faults)
{
    faults_ = faults;
    dropsEnabled_ =
        faults != nullptr && (faults->config().dramDropRate > 0.0 ||
                              faults->config().netDropRate > 0.0);
    coreStreams_.clear();
    sliceStreams_.clear();
    if (faults == nullptr)
        return;
    coreStreams_.reserve(numCores_);
    sliceStreams_.reserve(numCores_);
    for (unsigned c = 0; c < numCores_; ++c) {
        coreStreams_.push_back(faults->fork(kSaltCoreNet | c));
        sliceStreams_.push_back(faults->fork(kSaltSlice | c));
    }
}

void
MemorySystem::issueChunk(unsigned requester_core, unsigned slice,
                         double bytes, sim::SimTime slice_dur,
                         sim::SimTime port_dur, bool pipelined,
                         PendingAccess *pa)
{
    PGCN_ASSERT(slice < slices_.size(),
                "slice " << slice << " out of range");
    IssueShard &shard = issueShards_[requester_core];
    ++shard.accesses;
    const bool remote = requester_core != slice;
    shard.remoteAccesses += remote;

    if (!remote && !dropsEnabled_) {
        // Local clean fast path: requester and slice share a domain
        // for every domain count, so resolving the reservation
        // synchronously at issue is mode- and count-invariant. Draw
        // order matches arrive() so a slice's stream advances
        // identically whichever path its traffic takes.
        sim::SimTime sd_dur = slice_dur;
        double dram = dramLatencyNs_;
        if (faults_ != nullptr) [[unlikely]] {
            sim::FaultStream &s = sliceStreams_[slice];
            sd_dur = s.serviceDuration(slice_dur);
            (void)s.serviceDuration(port_dur);
            dram = s.dramLatency(dram);
        }
        sim::Engine &e = engineOf(requester_core);
        const sim::SimTime service_done =
            slices_[slice].reserveFor(bytes, sd_dur, e.now());
        MemoryAccess chunk{service_done,
                           pipelined ? service_done
                                     : service_done + dram};
        if (pa != nullptr)
            merge(pa->acc, chunk);
        return;
    }

    // Event path: the request bears the (jittered) one-way hop and
    // arbitrates at the slice in arrival order.
    const double net_base = netBase(requester_core, slice);
    double net_in = net_base;
    if (faults_ != nullptr && net_base > 0.0) [[unlikely]]
        net_in = coreStreams_[requester_core].networkLatency(net_base);

    sim::Engine &e = engineOf(requester_core);
    const Request r{pa,
                    requester_core,
                    slice,
                    bytes,
                    net_in,
                    sim::makeKeyedSeq(sim::kSeqBandRequest, requester_core,
                                      shard.requestStamp++),
                    e.now(),
                    pipelined};
    if (pa != nullptr)
        ++pa->remaining;
    domains_.postKeyed(domainOf(requester_core), domainOf(slice),
                       r.issue + net_in, r.seq,
                       [this, r] { arrive(r); });
}

void
MemorySystem::arrive(Request r)
{
    // Jitters are drawn once per access, at first arrival, from the
    // slice's own stream — dispatch order in the slice's domain is
    // deterministic and identical across modes and domain counts, so
    // so is the stream. The unjittered inputs are recomputed here
    // exactly as the issue side computed them.
    const double net_base = netBase(r.core, r.slice);
    const sim::SimTime slice_dur = r.bytes / sliceRate_;
    const sim::SimTime port_dur = r.bytes / portRate_;
    Timing t{slice_dur, port_dur, dramLatencyNs_, net_base};
    if (faults_ != nullptr) [[unlikely]] {
        sim::FaultStream &s = sliceStreams_[r.slice];
        t.sliceDur = s.serviceDuration(slice_dur);
        t.portDur = s.serviceDuration(port_dur);
        t.dram = s.dramLatency(t.dram);
        if (net_base > 0.0)
            t.netRet = s.networkLatency(net_base);
    }
    attempt(r, t, 0, r.issue, MemoryAccess{0.0, 0.0});
}

void
MemorySystem::attempt(Request r, Timing t, uint32_t n, sim::SimTime issue,
                      MemoryAccess chunk)
{
    sim::Engine &e = engineOf(r.slice);
    const bool remote = r.core != r.slice;
    // Reserve first, then draw the drop: a dropped response was lost
    // *after* service, so the attempt still consumed slice (and port)
    // bandwidth — retry amplification is a bandwidth story, not just
    // a latency story. Arrival-order arbitration falls out of the
    // dispatch order: every request at this timestamp was filed
    // before any clock reached it, and keyed seqs rank them.
    sim::SimTime service_done =
        slices_[r.slice].reserveFor(r.bytes, t.sliceDur, e.now());
    if (remote) {
        service_done = std::max(
            service_done,
            netPorts_[r.slice].reserveFor(r.bytes, t.portDur, e.now()));
    }
    if (!dropsEnabled_ ||
        !sliceStreams_[r.slice].dropTransaction(remote)) {
        chunk.serviceDoneAt = service_done;
        chunk.responseAt = r.pipelined
                               ? service_done + t.netRet
                               : service_done + t.dram + t.netRet;
        respond(r, chunk);
        return;
    }

    // Response lost. The timeout armed at issue fires; the requester
    // either backs off and re-issues or — once the budget is spent —
    // learns the fault is unrecoverable via a failure notice.
    SliceShard &shard = sliceShards_[r.slice];
    const sim::FaultConfig &fc = faults_->config();
    ++chunk.timeouts;
    ++shard.timeouts;
    const sim::SimTime detect = issue + fc.timeoutNs;
    if (n >= fc.maxRetries) {
        chunk.failed = true;
        chunk.serviceDoneAt = detect;
        chunk.responseAt = detect;
        chunk.recoveryNs += fc.timeoutNs;
        respond(r, chunk);
        return;
    }
    const sim::SimTime backoff =
        sliceStreams_[r.slice].backoffDelay(n);
    chunk.recoveryNs += fc.timeoutNs + backoff;
    ++chunk.retries;
    ++shard.retries;
    shard.retriedBytes += r.bytes;
    // Re-arm as a slice-domain self-event carrying the original
    // request key: the retry keeps its arbitration priority over
    // fresher requests arriving at the same instant. Re-arrival
    // reuses the access's request-hop draw (the old synchronous
    // chain reused its one network draw the same way), which also
    // guarantees re-arrival - now = timeout + backoff >= 0. The
    // retry state waits in the shard's table; the event names it.
    const sim::SimTime re_issue = detect + backoff;
    const PendingRetry pending{r, t, chunk, re_issue, n + 1};
    uint32_t id;
    if (!shard.freeRetries.empty()) {
        id = shard.freeRetries.back();
        shard.freeRetries.pop_back();
        shard.retryTable[id] = pending;
    } else {
        id = static_cast<uint32_t>(shard.retryTable.size());
        shard.retryTable.push_back(pending);
    }
    const unsigned dom = domainOf(r.slice);
    domains_.postKeyed(dom, dom, re_issue + r.netIn, r.seq,
                       [this, slice = r.slice, id] { retry(slice, id); });
}

void
MemorySystem::retry(unsigned slice, uint32_t id)
{
    SliceShard &shard = sliceShards_[slice];
    const PendingRetry p = shard.retryTable[id];
    shard.freeRetries.push_back(id);
    attempt(p.r, p.t, p.n, p.issue, p.chunk);
}

void
MemorySystem::respond(const Request &r, const MemoryAccess &chunk)
{
    SliceShard &shard = sliceShards_[r.slice];
    if (r.pa == nullptr) {
        // Posted traffic: no response event at all. Recovery and the
        // first unrecoverable loss are recorded here, slice-side.
        shard.postedRecoveryNs += chunk.recoveryNs;
        if (chunk.failed && !shard.postedFault.failed) {
            shard.postedFault =
                PostedFault{true, r.core, r.slice, chunk.responseAt};
        }
        return;
    }
    PendingAccess *pa = r.pa;
    const uint64_t seq = sim::makeKeyedSeq(
        sim::kSeqBandResponse, r.slice, shard.responseStamp++);
    domains_.postKeyed(domainOf(r.slice), domainOf(r.core),
                       chunk.responseAt, seq,
                       [this, pa, chunk] { completeChunk(*pa, chunk); });
}

void
MemorySystem::completeChunk(PendingAccess &pa, const MemoryAccess &chunk)
{
    merge(pa.acc, chunk);
    PGCN_ASSERT(pa.remaining > 0, "response for a completed access");
    if (--pa.remaining != 0)
        return;
    if (!pa.waiter)
        return;
    const std::coroutine_handle<> h = ParkedWaiters::unpark(pa);
    sim::Engine &e = engineOf(pa.core);
    const sim::SimTime d = pa.acc.responseAt - e.now();
    if (d > 0.0) {
        // A synchronously-resolved local chunk finishes after the
        // last event chunk: wake at the merged response time, with
        // delayUntil's arithmetic.
        e.schedule(d, h);
    } else {
        // This response *is* the completion: resume inline, exactly
        // as the response event's continuation.
        h.resume();
    }
}

void
MemorySystem::ParkedWaiters::appendBlocked(
    std::vector<sim::BlockedAgent> &out) const
{
    for (const ParkLink *l = head_.next; l != &head_; l = l->next) {
        const auto &pa = static_cast<const PendingAccess &>(*l);
        out.push_back(sim::BlockedAgent{
            engine_.agentName(pa.waiter.address()),
            "memory response (core " + std::to_string(pa.core) + ", " +
                std::to_string(pa.remaining) + " chunk(s) outstanding)",
            pa.issuedAt});
    }
}

double
MemorySystem::averageSliceUtilization(sim::SimTime end) const
{
    if (end <= 0.0 || slices_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &s : slices_)
        sum += s.utilization(end);
    return sum / static_cast<double>(slices_.size());
}

double
MemorySystem::maxSliceUtilization(sim::SimTime end) const
{
    double worst = 0.0;
    for (const auto &s : slices_)
        worst = std::max(worst, s.utilization(end));
    return worst;
}

double
MemorySystem::averageNetworkUtilization(sim::SimTime end) const
{
    if (end <= 0.0 || netPorts_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &p : netPorts_)
        sum += p.utilization(end);
    return sum / static_cast<double>(netPorts_.size());
}

} // namespace pgcn::piuma
