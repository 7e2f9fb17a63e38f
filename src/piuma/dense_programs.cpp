#include "piuma/dense_programs.hpp"

#include <string>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "piuma/machine.hpp"
#include "telemetry/session.hpp"

namespace pgcn::piuma {

namespace {

/**
 * One hardware thread computing its contiguous row range. Per row:
 * stream the K_in-float input row in (DMA-style pipelined read, so
 * transfer overlaps compute of the previous row), issue the
 * K_in x K_out MACs on the scalar pipeline, write the K_out-float
 * result row (posted). @p stuck is the thread's stuck-core hazard,
 * drawn in tid order before the thread spawned.
 */
sim::Process
denseThreadProc(Machine &m, unsigned tid, uint64_t row_begin,
                uint64_t row_end, uint64_t k_in, uint64_t k_out, bool stuck)
{
    const unsigned core = m.coreOfThread(tid);
    sim::Engine &eng = m.engineOfCore(core);
    auto &issue = m.mtpIssue[m.mtpOfThread(tid)];
    Machine::CoreStats &cs = m.coreStats[core];
    const double in_bytes = 4.0 * static_cast<double>(k_in);
    const double out_bytes = 4.0 * static_cast<double>(k_out);
    const double macs_per_row =
        static_cast<double>(k_in) * static_cast<double>(k_out);

    if (stuck) [[unlikely]] {
        // The watchdog reset costs stuckResetNs before the thread
        // makes progress.
        const sim::SimTime t0 = eng.now();
        co_await eng.delay(m.faults->config().stuckResetNs);
        m.noteStuckReset(core, t0, eng.now());
    }

    for (uint64_t row = row_begin; row < row_end; ++row) {
        uint64_t h = row;
        const auto slice =
            static_cast<unsigned>(pgcn::splitMix64(h) % m.cfg.numCores);
        // Streamed input row: bandwidth reserved, latency pipelined
        // behind the previous row's compute (the response only pays
        // the return hop past bandwidth service).
        if (!co_await m.load(core, slice, in_bytes, cs.featureStallNs,
                             "input-row read", /*striped=*/true,
                             /*pipelined=*/true))
            co_return;

        // The MAC loop on the scalar pipeline (loop-unrolled; see
        // PiumaConfig::issueCostPerMac).
        co_await issue.transfer(m.cfg.issueCostPerMac * macs_per_row +
                                m.cfg.issueCostPerEdge);

        // Posted result-row write: the thread does not wait, but an
        // unrecoverable drop of it is still a lost result, raised by
        // Machine::run after the drain.
        m.memory.writeStripedPosted(core, slice, out_bytes,
                                    /*pipelined=*/true);
    }
}

} // namespace

DenseRunStats
simulateDenseMm(uint64_t num_vertices, uint64_t k_in, uint64_t k_out,
                const PiumaConfig &cfg, telemetry::Session *session,
                const sim::SimControls *controls)
{
    cfg.validate();
    if (num_vertices == 0 || k_in == 0 || k_out == 0)
        PGCN_THROW(ShapeError, "dense MM needs positive dimensions");

    // One domain: the dense kernel is a calibration-sized model with
    // no sharding plan. Say so when the caller asked for more.
    if (controls != nullptr &&
        (controls->domains > 1 ||
         controls->domainMode == sim::DomainMode::Parallel))
        warn("simulateDenseMm runs on one domain: the dense program has "
             "no sharding plan");
    Machine m(cfg, sim::DomainSet::Options{}, controls);
    if (controls != nullptr && controls->monitor != nullptr)
        m.attachMonitor(*controls->monitor);

    const unsigned total_threads = cfg.totalThreads();
    for (unsigned tid = 0; tid < total_threads; ++tid) {
        const uint64_t begin = num_vertices * tid / total_threads;
        const uint64_t end = num_vertices * (tid + 1) / total_threads;
        if (begin < end)
            denseThreadProc(m, tid, begin, end, k_in, k_out, m.drawStuck());
    }

    const sim::SimTime makespan = m.run();

    DenseRunStats stats;
    stats.makespanNs = makespan;
    stats.flop = 2.0 * static_cast<double>(num_vertices) *
                 static_cast<double>(k_in) * static_cast<double>(k_out);
    stats.gflops = makespan > 0 ? stats.flop / makespan : 0.0;
    stats.memUtilization = m.memory.averageSliceUtilization(makespan);
    double issue_busy = 0.0;
    for (const auto &mtp : m.mtpIssue)
        issue_busy += mtp.utilization(makespan);
    stats.issueUtilization =
        issue_busy / static_cast<double>(m.mtpIssue.size());
    m.fillRecoveryStats(stats);
    m.fillHostStats(stats);

    if (session != nullptr)
        recordRun(*session, stats, k_in, k_out);
    return stats;
}

void
recordRun(telemetry::Session &session, const DenseRunStats &stats,
          uint64_t k_in, uint64_t k_out)
{
    session.beginKernel("dense/k_in=" + std::to_string(k_in) +
                        "/k_out=" + std::to_string(k_out));
    telemetry::Registry &reg = session.registry();
    reg.counter("piuma.dense.makespan_ns").add(stats.makespanNs);
    reg.counter("piuma.dense.flop").add(stats.flop);
    reg.counter("sim.events").add(static_cast<double>(stats.simEvents));
    session.endKernel(stats.makespanNs);
}

} // namespace pgcn::piuma
