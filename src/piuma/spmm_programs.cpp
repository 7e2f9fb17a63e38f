#include "piuma/spmm_programs.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "piuma/dma.hpp"
#include "piuma/machine.hpp"
#include "telemetry/session.hpp"

namespace pgcn::piuma {

using graph::Csr;
using graph::EdgeId;
using graph::VertexId;

const char *
spmmAlgorithmName(SpmmAlgorithm alg)
{
    switch (alg) {
      case SpmmAlgorithm::LoopUnrolled:
        return "loop-unrolled";
      case SpmmAlgorithm::Dma:
        return "dma";
    }
    PGCN_PANIC("unknown SpMM algorithm");
}

const char *
scalingBoundName(const SpmmRunStats &stats, unsigned total_threads)
{
    // A saturated resource is the bottleneck no matter what the event
    // graph's shape says: serialised event chains behind a full queue
    // are a symptom of the saturation, not the cause (a bandwidth
    // -bound SpMM shows a short critical path *because* every thread
    // is parked behind the same DRAM slice).
    constexpr double kSaturated = 0.85;
    if (stats.maxMemUtilization >= kSaturated)
        return "resource:mem";
    if (stats.netUtilization >= kSaturated)
        return "resource:net";
    if (stats.issueUtilization >= kSaturated)
        return "resource:issue";
    if (stats.dmaUtilization >= kSaturated)
        return "resource:dma";
    // No resource saturated but fewer independent event chains than
    // hardware threads: adding threads cannot help.
    if (stats.criticalPathParallelism > 0.0 &&
        stats.criticalPathParallelism <
            static_cast<double>(total_threads))
        return "critical-path";
    return "latency";
}

namespace {

/** Bytes of CSR (col + val) covered by one cache line. */
constexpr double kNnzBytesPerEdge = 8.0; // 4B column + 4B value

/**
 * One simulated SpMM run: the machine plus the matrix and the
 * live-thread counts that decide which thread terminates its core's
 * DMA engine.
 */
struct SpmmRun : Machine
{
    SpmmRun(const Csr &csr_in, unsigned k_in, const PiumaConfig &cfg_in,
            const sim::DomainSet::Options &plan,
            const sim::SimControls *controls)
        : Machine(cfg_in, plan, controls), csr(csr_in), k(k_in),
          liveThreadsPerCore(cfg_in.numCores,
                             cfg_in.mtpsPerCore * cfg_in.threadsPerMtp)
    {
    }

    const Csr &csr;
    unsigned k;
    std::vector<unsigned> liveThreadsPerCore;

    /// First slice of the (8-byte-interleaved) feature/output row of
    /// vertex @p v. Hashed placement (the default) spreads structure
    /// in vertex ids so hot rows cannot align onto one slice; blocked
    /// placement maps contiguous id ranges to consecutive slices,
    /// which is what lets a locality-aware reordering reduce the
    /// remote-access fraction (cfg.rowPlacement).
    unsigned
    rowSlice(VertexId v) const
    {
        if (cfg.rowPlacement == RowPlacement::Blocked) {
            return static_cast<unsigned>(static_cast<uint64_t>(v) *
                                         cfg.numCores /
                                         csr.numVertices());
        }
        uint64_t h = v;
        return static_cast<unsigned>(pgcn::splitMix64(h) % cfg.numCores);
    }

    /**
     * Edge range of thread @p tid. Hashed placement keeps Algorithm
     * 2's flat edge-parallel split (bit-identical to older builds).
     * Blocked placement goes owner-computes: each core processes
     * exactly the edges of the row block it hosts, and the core's
     * threads split that block's edges evenly. Locality then follows
     * placement, and load balance is surrendered to the vertex
     * ordering — the trade the reorder sweeps measure.
     */
    std::pair<EdgeId, EdgeId>
    threadEdgeRange(unsigned tid) const
    {
        const EdgeId nnz = csr.numEdges();
        const unsigned total = cfg.totalThreads();
        if (cfg.rowPlacement != RowPlacement::Blocked)
            return {nnz * tid / total, nnz * (tid + 1) / total};
        const unsigned tpc = cfg.mtpsPerCore * cfg.threadsPerMtp;
        const unsigned core = coreOfThread(tid);
        const unsigned lane = tid % tpc;
        const uint64_t n = csr.numVertices();
        // First row owned by slice c is ceil(c * n / numCores): the
        // inverse image of rowSlice(v) = v * numCores / n.
        const auto block_start = [&](unsigned c) {
            return (static_cast<uint64_t>(c) * n + cfg.numCores - 1) /
                   cfg.numCores;
        };
        const EdgeId lo = csr.rowOffsets()[block_start(core)];
        const EdgeId hi = csr.rowOffsets()[block_start(core + 1)];
        return {lo + (hi - lo) * lane / tpc,
                lo + (hi - lo) * (lane + 1) / tpc};
    }
};

/**
 * One hardware thread of Algorithm 2, the edge-parallel walk both
 * implementations of Section IV-B share: binary-search the starting
 * row (~log2 |V| dependent row-offset line reads), then stream the
 * thread's NNZ lines, loading a row-offset line whenever the row
 * cursor crosses one. A thread whose read exhausts its retry budget
 * records the fault and stops issuing work, but still runs the
 * epilogue so the run drains. The algorithm decides three things:
 *
 *  - a finished row: DMA pushes a WriteRow descriptor (the engine's
 *    atomic writeback); loop-unrolled posts a striped remote write
 *    the thread never waits on;
 *  - an edge: DMA pushes a ReadMulAcc descriptor; loop-unrolled
 *    loads the feature row one stall-on-use cache line at a time and
 *    issues the MACs on the scalar pipeline;
 *  - the epilogue: the last DMA thread of a core terminates the
 *    core's engine.
 *
 * @p stuck is the thread's stuck-core hazard, drawn in tid order
 * before the thread spawned.
 */
template <SpmmAlgorithm Alg>
sim::Process
spmmThreadProc(SpmmRun &run, unsigned tid, bool stuck)
{
    constexpr bool kDma = Alg == SpmmAlgorithm::Dma;
    const PiumaConfig &cfg = run.cfg;
    const auto [start, stop] = run.threadEdgeRange(tid);
    const unsigned core = run.coreOfThread(tid);
    // All of this thread's events live on its core's domain engine;
    // announcing there is what lets a cross-domain deadlock report
    // still resolve the agent's name.
    sim::Engine &eng = run.engineOfCore(core);
    co_await eng.announce("core" + std::to_string(core) + ".thread" +
                          std::to_string(tid));
    auto &issue = run.mtpIssue[run.mtpOfThread(tid)];
    auto *queue = kDma ? &run.dmaEngines[core].queue() : nullptr;
    Machine::CoreStats &cs = run.coreStats[core];
    const double row_bytes = 4.0 * run.k;
    const auto lines_per_row =
        static_cast<unsigned>(std::ceil(row_bytes / cfg.cacheLineBytes));
    // Issue cost of a row flush: one descriptor, or one store per line.
    const double flush_cost = kDma ? cfg.issueCostPerDescriptor
                                   : static_cast<double>(lines_per_row);
    const auto &offsets = run.csr.rowOffsets();
    const auto &cols = run.csr.cols();

    if (stuck) [[unlikely]] {
        // Stuck hardware context: the watchdog resets it before it
        // can issue its first instruction.
        const sim::SimTime t0 = eng.now();
        run.beginWait(core, t0);
        co_await eng.delay(run.faults->config().stuckResetNs);
        run.noteStuckReset(core, t0, eng.now());
    }

    bool dead = false;
    if (start < stop) {
        const unsigned steps = static_cast<unsigned>(std::ceil(
            std::log2(std::max<double>(2.0, run.csr.numVertices()))));
        const uint64_t rows_per_line = cfg.cacheLineBytes / 8; // offsets
        uint64_t probe_seed = 0x5eed00 + tid;
        const uint64_t row_lines =
            run.csr.numVertices() / rows_per_line + 1;
        for (unsigned s = 0; s < steps && !dead; ++s) {
            co_await issue.transfer(2.0); // compare + load
            const uint64_t line = pgcn::splitMix64(probe_seed) % row_lines;
            dead = !co_await run.load(core, run.lineSlice(line),
                                      cfg.cacheLineBytes,
                                      cs.rowOffsetStallNs,
                                      "row-offset read");
        }

        VertexId u = run.csr.rowOfEdge(start);
        uint64_t cur_nnz_line = ~uint64_t{0};
        uint64_t cur_row_line = (u + 1) / rows_per_line;
        // The edge loop is sequential, so the covering NNZ line is
        // tracked incrementally instead of divided out per edge.
        const auto edges_per_line =
            static_cast<uint64_t>(cfg.cacheLineBytes / kNnzBytesPerEdge);
        uint64_t line = start / edges_per_line;
        uint64_t line_end = (line + 1) * edges_per_line;

        for (EdgeId e = start; e < stop && !dead; ++e) {
            // NNZ (column + value) read, one line per 8 edges.
            if (e >= line_end) {
                ++line;
                line_end += edges_per_line;
            }
            if (line != cur_nnz_line) {
                cur_nnz_line = line;
                co_await issue.transfer(cfg.issueCostPerLineLoad);
                ++cs.nnzReads;
                dead = !co_await run.load(core, run.lineSlice(line),
                                          cfg.cacheLineBytes,
                                          cs.nnzStallNs, "nnz read");
            }

            // Row boundary: flush the finished row, advance the row
            // cursor.
            while (!dead && e >= offsets[u + 1]) {
                co_await issue.transfer(flush_cost);
                if constexpr (kDma) {
                    const sim::SimTime t0 = eng.now();
                    run.beginWait(core, t0);
                    co_await queue->push(DmaDescriptor{
                        DmaDescriptor::Op::WriteRow, run.rowSlice(u),
                        row_bytes});
                    run.noteQueueWait(core, t0, eng.now());
                } else {
                    run.memory.writeStripedPosted(core, run.rowSlice(u),
                                                  row_bytes);
                }
                ++u;
                const uint64_t rl = (u + 1) / rows_per_line;
                if (rl != cur_row_line) {
                    cur_row_line = rl;
                    co_await issue.transfer(cfg.issueCostPerLineLoad);
                    dead = !co_await run.load(core, run.lineSlice(rl),
                                              cfg.cacheLineBytes,
                                              cs.rowOffsetStallNs,
                                              "row-offset read");
                }
            }
            if (dead)
                break;

            if constexpr (kDma) {
                co_await issue.transfer(cfg.issueCostPerEdge +
                                        cfg.issueCostPerDescriptor);
                const sim::SimTime t0 = eng.now();
                run.beginWait(core, t0);
                co_await queue->push(DmaDescriptor{
                    DmaDescriptor::Op::ReadMulAcc, run.rowSlice(cols[e]),
                    row_bytes});
                run.noteQueueWait(core, t0, eng.now());
            } else {
                // The single in-flight instruction per thread
                // serialises the line loads. Consecutive lines of the
                // row live on consecutive slices (8-byte DGAS
                // interleave rounds to lines at this access size);
                // without interleaving the whole row lives on its
                // placement slice — what makes blocked placement + a
                // clustered ordering local.
                const unsigned row_slice = run.rowSlice(cols[e]);
                for (unsigned l = 0; l < lines_per_row && !dead; ++l) {
                    co_await issue.transfer(cfg.issueCostPerLineLoad);
                    const double chunk = std::min<double>(
                        cfg.cacheLineBytes,
                        row_bytes - l * cfg.cacheLineBytes);
                    const unsigned line_slice =
                        cfg.dgasFineInterleave
                            ? (row_slice + l) % cfg.numCores
                            : row_slice;
                    dead = !co_await run.load(core, line_slice, chunk,
                                              cs.featureStallNs,
                                              "feature read",
                                              /*striped=*/true);
                }
                if (dead)
                    break;
                // Scale-and-accumulate on the scalar pipeline.
                const sim::SimTime t0 = eng.now();
                co_await issue.transfer(cfg.issueCostPerEdge +
                                        cfg.issueCostPerMac * run.k);
                cs.issueNs += eng.now() - t0;
            }
        }

        if (!dead) {
            // Final flush of the last (possibly shared) row.
            co_await issue.transfer(flush_cost);
            if constexpr (kDma) {
                co_await queue->push(DmaDescriptor{
                    DmaDescriptor::Op::WriteRow, run.rowSlice(u),
                    row_bytes});
            } else {
                run.memory.writeStripedPosted(core, run.rowSlice(u),
                                              row_bytes);
            }
        }
    }

    if (--run.liveThreadsPerCore[core] == 0 && kDma) {
        co_await queue->push(
            DmaDescriptor{DmaDescriptor::Op::Terminate, 0, 0.0});
    }
}

} // namespace

SpmmRunStats
simulateSpmm(const Csr &csr, unsigned embedding_dim, const PiumaConfig &cfg,
             SpmmAlgorithm alg, telemetry::Session *session,
             const sim::SimControls *controls)
{
    cfg.validate();
    if (embedding_dim == 0)
        PGCN_THROW(ShapeError, "embedding dimension must be positive");
    if (csr.numVertices() == 0)
        PGCN_THROW(ShapeError, "cannot simulate SpMM on an empty matrix");

    sim::MonitorHub *hub = controls != nullptr ? controls->monitor : nullptr;
    SpmmRun run(csr, embedding_dim, cfg,
                MemorySystem::domainPlan(cfg, controls), controls);
    if (hub != nullptr)
        run.attachMonitor(*hub);

    if (alg == SpmmAlgorithm::Dma) {
        run.dmaEngines.reserve(cfg.numCores);
        for (unsigned c = 0; c < cfg.numCores; ++c)
            run.dmaEngines.emplace_back(run.engineOfCore(c), run.memory, cfg,
                                        c);
        // Wire up after every engine is emplaced: each engine's run()
        // coroutine holds `this`, which must not move again.
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            DmaEngine &engine = run.dmaEngines[c];
            if (run.faults != nullptr)
                engine.setFaultInjector(run.faults);
            if (hub != nullptr)
                engine.attachMonitor(hub->dmaTimeline(c));
            engine.run();
        }
        for (unsigned tid = 0; tid < cfg.totalThreads(); ++tid)
            spmmThreadProc<SpmmAlgorithm::Dma>(run, tid, run.drawStuck());
    } else {
        for (unsigned tid = 0; tid < cfg.totalThreads(); ++tid)
            spmmThreadProc<SpmmAlgorithm::LoopUnrolled>(run, tid,
                                                        run.drawStuck());
    }

    const sim::SimTime makespan = run.run();

    SpmmRunStats stats;
    stats.makespanNs = makespan;
    stats.flop = 2.0 * static_cast<double>(csr.numEdges()) * embedding_dim;
    stats.gflops = makespan > 0 ? stats.flop / makespan : 0.0;
    stats.bytesRead = run.memory.bytesRead();
    stats.bytesWritten = run.memory.bytesWritten();
    stats.bytesServed = run.memory.sliceBytesServed();
    stats.memUtilization = run.memory.averageSliceUtilization(makespan);
    stats.maxMemUtilization = run.memory.maxSliceUtilization(makespan);
    stats.netUtilization = run.memory.averageNetworkUtilization(makespan);
    stats.memAccesses = run.memory.totalAccesses();
    stats.memRemoteAccesses = run.memory.remoteAccesses();
    stats.remoteAccessFraction = run.memory.remoteAccessFraction();
    if (stats.bytesServed > 0.0) {
        double max_slice = 0.0;
        for (size_t i = 0; i < run.memory.numSlices(); ++i)
            max_slice = std::max(max_slice, run.memory.sliceBytes(i));
        stats.maxSliceBytesFraction =
            max_slice * static_cast<double>(run.memory.numSlices()) /
            stats.bytesServed;
    }
    // Reduce the per-core shards in core-index order (a fixed-order
    // sum, so the floating-point result is domain/mode-invariant).
    for (const Machine::CoreStats &cs : run.coreStats) {
        stats.nnzStallNs += cs.nnzStallNs;
        stats.rowOffsetStallNs += cs.rowOffsetStallNs;
        stats.featureStallNs += cs.featureStallNs;
        stats.dmaQueueStallNs += cs.dmaQueueStallNs;
        stats.issueNs += cs.issueNs;
        stats.stallMemoryNs += cs.stallMemNs;
        stats.stallNetworkNs += cs.stallNetNs;
        stats.nnzReads += cs.nnzReads;
    }
    if (makespan > 0.0) {
        double issue_busy = 0.0;
        for (const auto &r : run.mtpIssue)
            issue_busy += r.busyTime();
        stats.issueUtilization =
            issue_busy /
            (static_cast<double>(run.mtpIssue.size()) * makespan);
        double dma_busy = 0.0;
        for (const auto &engine : run.dmaEngines)
            dma_busy += engine.stats().busyNs;
        if (!run.dmaEngines.empty()) {
            stats.dmaUtilization =
                dma_busy /
                (static_cast<double>(run.dmaEngines.size()) * makespan);
        }
    }
    stats.criticalPathEvents = run.domains.criticalPathEvents();
    stats.criticalPathParallelism =
        stats.criticalPathEvents > 0
            ? static_cast<double>(run.domains.eventsProcessed()) /
                  static_cast<double>(stats.criticalPathEvents)
            : 0.0;
    if (hub != nullptr) {
        const sim::OccupancyReport rep = hub->report(makespan);
        stats.latencyHidingEffectiveness =
            rep.latencyHidingEffectiveness;
        stats.exposedStallNs = rep.exposedStallNs;
    }
    // The NNZ sites' stall is their observed latency.
    stats.avgNnzLatencyNs =
        stats.nnzReads ? stats.nnzStallNs /
                             static_cast<double>(stats.nnzReads)
                       : 0.0;
    // Recovery accounting: memory counters own transaction-level
    // retries/timeouts; DMA engines add their descriptor re-issues.
    // Goodput is demanded traffic only — bytesServed additionally
    // counts the bandwidth retries burned, and the conservation
    // invariant bytesServed == goodputBytes + retriedBytes is what
    // the soak test pins.
    run.fillRecoveryStats(stats);
    for (const auto &engine : run.dmaEngines) {
        stats.dmaDescriptors += engine.stats().descriptors;
        stats.retries += engine.stats().retries;
        stats.timeoutsFired += engine.stats().timeoutsFired;
        stats.recoveryNs += engine.stats().recoveryNs;
    }
    stats.retriedBytes = run.memory.retriedBytes();
    run.fillHostStats(stats);
    stats.domains = run.domains.domains();
    stats.lookaheadNs = stats.domains > 1 ? run.domains.lookaheadNs() : 0.0;
    stats.windows = run.domains.windows();
    stats.crossDomainPosts = run.domains.crossDomainPosts();

    if (session != nullptr)
        recordRun(*session, stats, alg, embedding_dim);
    return stats;
}

void
recordRun(telemetry::Session &session, const SpmmRunStats &stats,
          SpmmAlgorithm alg, unsigned embedding_dim)
{
    session.beginKernel(std::string("spmm/") + spmmAlgorithmName(alg) +
                        "/k=" + std::to_string(embedding_dim));
    telemetry::Registry &reg = session.registry();
    reg.counter("piuma.spmm.makespan_ns").add(stats.makespanNs);
    reg.counter("piuma.spmm.flop").add(stats.flop);
    reg.counter("piuma.spmm.bytes_read").add(stats.bytesRead);
    reg.counter("piuma.spmm.bytes_written").add(stats.bytesWritten);
    reg.counter("piuma.spmm.mem_accesses")
        .add(static_cast<double>(stats.memAccesses));
    reg.counter("piuma.spmm.remote_accesses")
        .add(static_cast<double>(stats.memRemoteAccesses));
    reg.counter("piuma.spmm.nnz_reads")
        .add(static_cast<double>(stats.nnzReads));
    reg.counter("piuma.spmm.stall.nnz_ns").add(stats.nnzStallNs);
    reg.counter("piuma.spmm.stall.row_offset_ns")
        .add(stats.rowOffsetStallNs);
    reg.counter("piuma.spmm.stall.feature_ns").add(stats.featureStallNs);
    reg.counter("piuma.spmm.stall.dma_queue_ns")
        .add(stats.dmaQueueStallNs);
    reg.counter("piuma.spmm.issue_ns").add(stats.issueNs);
    reg.counter("piuma.spmm.stall.memory_ns").add(stats.stallMemoryNs);
    reg.counter("piuma.spmm.stall.network_ns").add(stats.stallNetworkNs);
    if (alg == SpmmAlgorithm::Dma) {
        reg.counter("piuma.dma.descriptors")
            .add(static_cast<double>(stats.dmaDescriptors));
    }
    reg.counter("sim.critical_path_events")
        .add(static_cast<double>(stats.criticalPathEvents));
    reg.counter("sim.events").add(static_cast<double>(stats.simEvents));
    session.endKernel(stats.makespanNs);
}

} // namespace pgcn::piuma
