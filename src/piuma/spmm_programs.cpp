#include "piuma/spmm_programs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "piuma/dma.hpp"
#include "piuma/memory.hpp"
#include "sim/domain.hpp"
#include "sim/engine.hpp"
#include "sim/monitor.hpp"
#include "sim/resource.hpp"
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
 * Everything one simulated SpMM run shares: the event domains, the
 * memory system, per-MTP issue resources, per-core DMA engines and
 * the stat accumulators the thread coroutines write into.
 *
 * Sharding layout: cores are split into `domains` contiguous groups
 * (a domain stands in for one PIUMA node / DRAM-slice group); every
 * core's agents, issue resources and DMA queue live on the core's
 * domain engine, and memory requests/responses travel between
 * domains as keyed events (see piuma/memory.hpp). The domain count
 * comes from MemorySystem::domainPlan — the carried keys make every
 * count dispatch identically, so the event order, every always-on
 * stat and every output byte are identical to the serial engine
 * (the differential tests pin this).
 *
 * Every mutable accumulator is sharded per core (single writer: only
 * code running in the core's domain touches the core's shard) and
 * reduced in core-index order after the run, so aggregates are
 * domain-count- and mode-invariant.
 *
 * Declared first so the engines outlive every queue/resource/monitor
 * that registers against them.
 */
struct RunContext
{
    /// Per-core accumulator shard, cache-line aligned so shards on
    /// different worker threads never share a line.
    struct alignas(64) CoreStats
    {
        // Stall attribution by wait site.
        double nnzStallNs = 0.0;
        double rowOffsetStallNs = 0.0;
        double featureStallNs = 0.0;
        double dmaQueueStallNs = 0.0;
        double issueNs = 0.0;
        // Taxonomy re-bucketing of the same waits by where they were
        // served (always on: one branch + one add per wait).
        double stallMemNs = 0.0;
        double stallNetNs = 0.0;
        double nnzLatencySum = 0.0;
        uint64_t nnzReads = 0;
        // Recovery accounting: thread time inside the modeled
        // protocol (timeout + backoff + watchdog resets), carved out
        // of the memory/network stall taxonomy so hidden retries and
        // exposed retries stay distinguishable.
        double recoveryStallNs = 0.0;
        uint64_t stuckResets = 0;
        // First unrecoverable fault seen by this core's threads. A
        // coroutine cannot throw through the engine, so it records
        // the fault, bails out of its work loop, and simulateSpmm
        // reduces the shards (earliest detection wins, ties to the
        // lowest core) and raises SimFaultError after the run.
        bool faulted = false;
        std::string faultSite;
        sim::SimTime faultWhenNs = 0.0;
    };

    RunContext(const Csr &csr_in, unsigned k_in, const PiumaConfig &cfg_in,
               const sim::DomainSet::Options &opts)
        : domains(opts), engine(domains.engine(0)), csr(csr_in),
          k(k_in), cfg(cfg_in), memory(domains, cfg_in)
    {
        const unsigned total_mtps = cfg.numCores * cfg.mtpsPerCore;
        mtpIssue.reserve(total_mtps);
        for (unsigned m = 0; m < total_mtps; ++m)
            mtpIssue.emplace_back(engineOfCore(m / cfg.mtpsPerCore),
                                  cfg.clockGhz);
        liveThreadsPerCore.assign(cfg.numCores,
                                  cfg.mtpsPerCore * cfg.threadsPerMtp);
        coreStats.resize(cfg.numCores);
    }

    /// Domain owning @p core (and DRAM slice `core`, the slices being
    /// core-attached). Contiguous blocks: core c -> c * D / numCores.
    unsigned
    domainOfCore(unsigned core) const
    {
        return static_cast<unsigned>(static_cast<uint64_t>(core) *
                                     domains.domains() / cfg.numCores);
    }

    /// The event-domain engine hosting @p core's agents.
    sim::Engine &
    engineOfCore(unsigned core)
    {
        return domains.engine(domainOfCore(core));
    }

    sim::DomainSet domains;
    sim::Engine &engine; ///< domain 0's engine (setup/serial use)
    const Csr &csr;
    unsigned k;
    const PiumaConfig &cfg;
    MemorySystem memory;
    std::vector<sim::BandwidthResource> mtpIssue;
    std::vector<DmaEngine> dmaEngines;
    std::vector<unsigned> liveThreadsPerCore;
    std::vector<CoreStats> coreStats;
    /// Pre-drawn stuck-core hazards per thread id. Drawn before the
    /// workers spawn (the main injector stays single-threaded); empty
    /// when fault injection is off.
    std::vector<char> stuckAtStart;
    /// Occupancy/stall monitor; null leaves the wait sites at one
    /// predictable branch each. Attaching one forces one domain.
    sim::MonitorHub *monitor = nullptr;
    /// Fault injector shared with memory/DMA (fork source); null
    /// disables the stuck-core hazard draw at thread start.
    sim::FaultInjector *faults = nullptr;

    /// Credit a resolved memory wait to the locality taxonomy and,
    /// when a monitor is attached, to the core's stall timeline.
    /// Striped accesses are classified by their first slice. The
    /// recovery portion of the wait (timeout/backoff re-issues) is
    /// credited to RecoveryWait instead of memory/network, so the
    /// taxonomy reads: site sums == memory + network + recovery.
    /// @p now is the core's domain clock at resolution time.
    void
    noteMemWait(unsigned core, unsigned slice, sim::SimTime t0,
                sim::SimTime now, double waited, double recovery)
    {
        CoreStats &cs = coreStats[core];
        const bool local = slice == core;
        (local ? cs.stallMemNs : cs.stallNetNs) += waited - recovery;
        cs.recoveryStallNs += recovery;
        if (monitor != nullptr) [[unlikely]] {
            if (recovery > 0.0)
                monitor->noteRecovery(core, t0, t0 + recovery);
            monitor->endWait(core,
                             local ? sim::StallCause::MemoryWait
                                   : sim::StallCause::NetworkWait,
                             t0 + recovery, now);
        }
    }

    /// Close a stuck-core watchdog-reset wait (RecoveryWait cause).
    void
    noteStuckReset(unsigned core, sim::SimTime t0, sim::SimTime now)
    {
        CoreStats &cs = coreStats[core];
        cs.recoveryStallNs += now - t0;
        ++cs.stuckResets;
        if (monitor != nullptr) [[unlikely]] {
            monitor->endWait(core, sim::StallCause::RecoveryWait, t0,
                             now);
        }
    }

    /// Record this core's first unrecoverable fault (cold path).
    void
    recordFault(const char *what, unsigned core, unsigned slice)
    {
        CoreStats &cs = coreStats[core];
        if (cs.faulted)
            return;
        cs.faulted = true;
        cs.faultSite = "core" + std::to_string(core) + " " + what +
                       " on slice " + std::to_string(slice);
        cs.faultWhenNs = engineOfCore(core).now();
    }

    /// Monitor hook before a blocking wait begins (no-op unattached).
    void
    beginWait(unsigned core, sim::SimTime t0)
    {
        if (monitor != nullptr) [[unlikely]]
            monitor->beginWait(core, t0);
    }

    /// Close a queue-full backpressure wait on the monitor.
    void
    noteQueueWait(unsigned core, sim::SimTime t0, sim::SimTime now)
    {
        if (monitor != nullptr) [[unlikely]]
            monitor->endWait(core, sim::StallCause::QueueFull, t0, now);
    }

    unsigned
    coreOfThread(unsigned tid) const
    {
        return tid / (cfg.mtpsPerCore * cfg.threadsPerMtp);
    }

    unsigned
    mtpOfThread(unsigned tid) const
    {
        return tid / cfg.threadsPerMtp;
    }

    /// Slice owning cache line @p line of an interleaved array.
    unsigned
    lineSlice(uint64_t line) const
    {
        return static_cast<unsigned>(line % cfg.numCores);
    }

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

    uint64_t
    edgesPerNnzLine() const
    {
        return static_cast<uint64_t>(cfg.cacheLineBytes /
                                     kNnzBytesPerEdge);
    }

    uint64_t
    rowsPerOffsetLine() const
    {
        return cfg.cacheLineBytes / 8; // 8-byte offsets
    }
};

/**
 * The DMA-based SpMM thread (Section IV-B, "DMA implementation").
 */
sim::Process
dmaThreadProc(RunContext &ctx, unsigned tid)
{
    const auto [start, stop] = ctx.threadEdgeRange(tid);
    const unsigned core = ctx.coreOfThread(tid);
    // All of this thread's events live on its core's domain engine;
    // announcing there is what lets a cross-domain deadlock report
    // still resolve the agent's name.
    sim::Engine &eng = ctx.engineOfCore(core);
    co_await eng.announce("core" + std::to_string(core) + ".thread" +
                          std::to_string(tid));
    auto &issue = ctx.mtpIssue[ctx.mtpOfThread(tid)];
    auto &queue = ctx.dmaEngines[core].queue();
    const double row_bytes = 4.0 * ctx.k;
    const auto &offsets = ctx.csr.rowOffsets();
    const auto &cols = ctx.csr.cols();

    if (!ctx.stuckAtStart.empty() && ctx.stuckAtStart[tid]) [[unlikely]] {
        // Stuck hardware context: the watchdog resets it before it
        // can issue its first instruction (hazard pre-drawn in tid
        // order before the workers spawned).
        const sim::SimTime t0 = eng.now();
        ctx.beginWait(core, t0);
        co_await eng.delay(ctx.faults->config().stuckResetNs);
        ctx.noteStuckReset(core, t0, eng.now());
    }

    // Set when a memory access exhausts its retry budget: the thread
    // records the fault and bails out of its work (a coroutine cannot
    // throw through the engine), but still runs the terminate
    // epilogue so the run drains cleanly.
    bool dead = false;

    if (start < stop) {
        // Binary search for the starting row (Algorithm 2 line 4):
        // ~log2(|V|) dependent row-offset line reads.
        const unsigned steps = static_cast<unsigned>(std::ceil(
            std::log2(std::max<double>(2.0, ctx.csr.numVertices()))));
        uint64_t probe_seed = 0x5eed00 + tid;
        const uint64_t row_lines =
            ctx.csr.numVertices() / ctx.rowsPerOffsetLine() + 1;
        for (unsigned s = 0; s < steps; ++s) {
            co_await issue.transfer(2.0); // compare + load
            const uint64_t line =
                pgcn::splitMix64(probe_seed) % row_lines;
            const unsigned slice = ctx.lineSlice(line);
            const sim::SimTime t0 = eng.now();
            ctx.beginWait(core, t0);
            const MemoryAccess acc = co_await ctx.memory.read(
                core, slice, ctx.cfg.cacheLineBytes);
            const double waited = eng.now() - t0;
            ctx.coreStats[core].rowOffsetStallNs += waited;
            ctx.noteMemWait(core, slice, t0, eng.now(), waited,
                            acc.recoveryNs);
            if (acc.failed) [[unlikely]] {
                ctx.recordFault("row-offset read", core, slice);
                dead = true;
                break;
            }
        }

        VertexId u = ctx.csr.rowOfEdge(start);
        const uint64_t rows_per_line = ctx.rowsPerOffsetLine();
        uint64_t cur_nnz_line = ~uint64_t{0};
        uint64_t cur_row_line = (u + 1) / rows_per_line;
        // The edge loop is sequential, so the covering NNZ line is
        // tracked incrementally instead of divided out per edge.
        const uint64_t edges_per_line = ctx.edgesPerNnzLine();
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
                co_await issue.transfer(ctx.cfg.issueCostPerLineLoad);
                const unsigned slice = ctx.lineSlice(line);
                const sim::SimTime t0 = eng.now();
                ctx.beginWait(core, t0);
                const MemoryAccess acc = co_await ctx.memory.read(
                    core, slice, ctx.cfg.cacheLineBytes);
                const double waited = eng.now() - t0;
                RunContext::CoreStats &cs = ctx.coreStats[core];
                cs.nnzStallNs += waited;
                cs.nnzLatencySum += waited;
                ++cs.nnzReads;
                ctx.noteMemWait(core, slice, t0, eng.now(), waited,
                                acc.recoveryNs);
                if (acc.failed) [[unlikely]] {
                    ctx.recordFault("nnz read", core, slice);
                    dead = true;
                    break;
                }
            }

            // Row boundary: flush the accumulation buffer (atomic
            // writeback descriptor), advance the row cursor.
            while (e >= offsets[u + 1]) {
                co_await issue.transfer(ctx.cfg.issueCostPerDescriptor);
                sim::SimTime t0 = eng.now();
                ctx.beginWait(core, t0);
                co_await queue.push(DmaDescriptor{
                    DmaDescriptor::Op::WriteRow, ctx.rowSlice(u),
                    row_bytes});
                ctx.coreStats[core].dmaQueueStallNs += eng.now() - t0;
                ctx.noteQueueWait(core, t0, eng.now());
                ++u;
                const uint64_t rl = (u + 1) / rows_per_line;
                if (rl != cur_row_line) {
                    cur_row_line = rl;
                    co_await issue.transfer(
                        ctx.cfg.issueCostPerLineLoad);
                    const unsigned slice = ctx.lineSlice(rl);
                    t0 = eng.now();
                    ctx.beginWait(core, t0);
                    const MemoryAccess acc = co_await ctx.memory.read(
                        core, slice, ctx.cfg.cacheLineBytes);
                    const double waited = eng.now() - t0;
                    ctx.coreStats[core].rowOffsetStallNs += waited;
                    ctx.noteMemWait(core, slice, t0, eng.now(), waited,
                                    acc.recoveryNs);
                    if (acc.failed) [[unlikely]] {
                        ctx.recordFault("row-offset read", core, slice);
                        dead = true;
                        break;
                    }
                }
            }
            if (dead)
                break;

            // Emit the read-multiply-accumulate descriptor.
            co_await issue.transfer(ctx.cfg.issueCostPerEdge +
                                    ctx.cfg.issueCostPerDescriptor);
            const sim::SimTime t0 = eng.now();
            ctx.beginWait(core, t0);
            co_await queue.push(DmaDescriptor{
                DmaDescriptor::Op::ReadMulAcc, ctx.rowSlice(cols[e]),
                row_bytes});
            ctx.coreStats[core].dmaQueueStallNs += eng.now() - t0;
            ctx.noteQueueWait(core, t0, eng.now());
        }

        if (!dead) {
            // Final flush of the last (possibly shared) row.
            co_await issue.transfer(ctx.cfg.issueCostPerDescriptor);
            co_await queue.push(DmaDescriptor{
                DmaDescriptor::Op::WriteRow, ctx.rowSlice(u),
                row_bytes});
        }
    }

    if (--ctx.liveThreadsPerCore[core] == 0) {
        co_await queue.push(
            DmaDescriptor{DmaDescriptor::Op::Terminate, 0, 0.0});
    }
}

/**
 * The loop-unrolled SpMM thread: everything happens on the MTP
 * pipeline itself with stall-on-use cache-line loads.
 */
sim::Process
loopUnrolledThreadProc(RunContext &ctx, unsigned tid)
{
    const auto [start, stop] = ctx.threadEdgeRange(tid);
    const unsigned core = ctx.coreOfThread(tid);
    sim::Engine &eng = ctx.engineOfCore(core);
    co_await eng.announce("core" + std::to_string(core) + ".thread" +
                          std::to_string(tid));
    auto &issue = ctx.mtpIssue[ctx.mtpOfThread(tid)];
    const double row_bytes = 4.0 * ctx.k;
    const auto lines_per_row = static_cast<unsigned>(
        std::ceil(row_bytes / ctx.cfg.cacheLineBytes));
    const auto &offsets = ctx.csr.rowOffsets();
    const auto &cols = ctx.csr.cols();

    if (!ctx.stuckAtStart.empty() && ctx.stuckAtStart[tid]) [[unlikely]] {
        const sim::SimTime t0 = eng.now();
        ctx.beginWait(core, t0);
        co_await eng.delay(ctx.faults->config().stuckResetNs);
        ctx.noteStuckReset(core, t0, eng.now());
    }

    bool dead = false;

    if (start < stop) {
        const unsigned steps = static_cast<unsigned>(std::ceil(
            std::log2(std::max<double>(2.0, ctx.csr.numVertices()))));
        uint64_t probe_seed = 0x5eed00 + tid;
        const uint64_t row_lines =
            ctx.csr.numVertices() / ctx.rowsPerOffsetLine() + 1;
        for (unsigned s = 0; s < steps; ++s) {
            co_await issue.transfer(2.0);
            const uint64_t line =
                pgcn::splitMix64(probe_seed) % row_lines;
            const unsigned slice = ctx.lineSlice(line);
            const sim::SimTime t0 = eng.now();
            ctx.beginWait(core, t0);
            const MemoryAccess acc = co_await ctx.memory.read(
                core, slice, ctx.cfg.cacheLineBytes);
            const double waited = eng.now() - t0;
            ctx.coreStats[core].rowOffsetStallNs += waited;
            ctx.noteMemWait(core, slice, t0, eng.now(), waited,
                            acc.recoveryNs);
            if (acc.failed) [[unlikely]] {
                ctx.recordFault("row-offset read", core, slice);
                dead = true;
                break;
            }
        }

        VertexId u = ctx.csr.rowOfEdge(start);
        const uint64_t rows_per_line = ctx.rowsPerOffsetLine();
        uint64_t cur_nnz_line = ~uint64_t{0};
        uint64_t cur_row_line = (u + 1) / rows_per_line;
        const uint64_t edges_per_line = ctx.edgesPerNnzLine();
        uint64_t line = start / edges_per_line;
        uint64_t line_end = (line + 1) * edges_per_line;

        for (EdgeId e = start; e < stop && !dead; ++e) {
            if (e >= line_end) {
                ++line;
                line_end += edges_per_line;
            }
            if (line != cur_nnz_line) {
                cur_nnz_line = line;
                co_await issue.transfer(ctx.cfg.issueCostPerLineLoad);
                const unsigned slice = ctx.lineSlice(line);
                const sim::SimTime t0 = eng.now();
                ctx.beginWait(core, t0);
                const MemoryAccess acc = co_await ctx.memory.read(
                    core, slice, ctx.cfg.cacheLineBytes);
                const double waited = eng.now() - t0;
                RunContext::CoreStats &cs = ctx.coreStats[core];
                cs.nnzStallNs += waited;
                cs.nnzLatencySum += waited;
                ++cs.nnzReads;
                ctx.noteMemWait(core, slice, t0, eng.now(), waited,
                                acc.recoveryNs);
                if (acc.failed) [[unlikely]] {
                    ctx.recordFault("nnz read", core, slice);
                    break;
                }
            }

            while (e >= offsets[u + 1]) {
                // Atomic row writeback with posted remote stores: the
                // thread never waits on it, so it is request-only
                // traffic (an unrecoverable drop would have been lost
                // silently here before PR 10 too — the accumulated
                // row was already discarded).
                co_await issue.transfer(
                    static_cast<double>(lines_per_row));
                ctx.memory.writeStripedPosted(core, ctx.rowSlice(u),
                                              row_bytes);
                ++u;
                const uint64_t rl = (u + 1) / rows_per_line;
                if (rl != cur_row_line) {
                    cur_row_line = rl;
                    co_await issue.transfer(
                        ctx.cfg.issueCostPerLineLoad);
                    const unsigned slice = ctx.lineSlice(rl);
                    const sim::SimTime t0 = eng.now();
                    ctx.beginWait(core, t0);
                    const MemoryAccess acc = co_await ctx.memory.read(
                        core, slice, ctx.cfg.cacheLineBytes);
                    const double waited = eng.now() - t0;
                    ctx.coreStats[core].rowOffsetStallNs += waited;
                    ctx.noteMemWait(core, slice, t0, eng.now(), waited,
                                    acc.recoveryNs);
                    if (acc.failed) [[unlikely]] {
                        ctx.recordFault("row-offset read", core, slice);
                        dead = true;
                        break;
                    }
                }
            }
            if (dead)
                break;

            // Stall-on-use feature-vector line loads: the unrolled
            // loop requests one full cache line at a time, and the
            // single in-flight instruction per thread serialises
            // them.
            for (unsigned l = 0; l < lines_per_row; ++l) {
                co_await issue.transfer(ctx.cfg.issueCostPerLineLoad);
                const sim::SimTime t0 = eng.now();
                const double chunk =
                    std::min<double>(ctx.cfg.cacheLineBytes,
                                     row_bytes -
                                         l * ctx.cfg.cacheLineBytes);
                // Consecutive lines of the row live on consecutive
                // slices (8-byte DGAS interleave rounds to lines at
                // this access size). Without interleaving the whole
                // row lives on its placement slice, so every line of
                // it goes there — that is exactly what makes blocked
                // placement + a clustered ordering local.
                const unsigned line_slice =
                    ctx.cfg.dgasFineInterleave
                        ? (ctx.rowSlice(cols[e]) + l) % ctx.cfg.numCores
                        : ctx.rowSlice(cols[e]);
                ctx.beginWait(core, t0);
                const MemoryAccess acc = co_await
                    ctx.memory.readStriped(core, line_slice, chunk);
                const double waited = eng.now() - t0;
                ctx.coreStats[core].featureStallNs += waited;
                ctx.noteMemWait(core, line_slice, t0, eng.now(), waited,
                                acc.recoveryNs);
                if (acc.failed) [[unlikely]] {
                    ctx.recordFault("feature read", core, line_slice);
                    dead = true;
                    break;
                }
            }
            if (dead)
                break;

            // Scale-and-accumulate on the scalar pipeline.
            const sim::SimTime t0 = eng.now();
            co_await issue.transfer(ctx.cfg.issueCostPerEdge +
                                    ctx.cfg.issueCostPerMac * ctx.k);
            ctx.coreStats[core].issueNs += eng.now() - t0;
        }

        if (!dead) {
            // Final row flush.
            co_await issue.transfer(static_cast<double>(lines_per_row));
            ctx.memory.writeStripedPosted(core, ctx.rowSlice(u),
                                          row_bytes);
        }
    }

    --ctx.liveThreadsPerCore[core];
    co_return;
}

/**
 * Register the run-scoped gauges an SpMM timeline needs: event-queue
 * depth, live MTP threads, aggregate issue utilisation, and the
 * stall-attribution rates (delta stall-ns per simulated ns == mean
 * number of threads stalled on that cause during the sample window).
 */
void
attachRunGauges(RunContext &ctx, telemetry::Session &session)
{
    telemetry::Registry &reg = session.registry();
    reg.registerGauge("sim.queue_depth", telemetry::GaugeKind::Value,
                      [&ctx] {
                          return static_cast<double>(
                              ctx.engine.queueDepth());
                      });
    reg.registerGauge("piuma.mtp.threads_live",
                      telemetry::GaugeKind::Value, [&ctx] {
                          unsigned live = 0;
                          for (unsigned c : ctx.liveThreadsPerCore)
                              live += c;
                          return static_cast<double>(live);
                      });
    reg.registerGauge("piuma.mtp.issue_util", telemetry::GaugeKind::Rate,
                      [&ctx] {
                          double busy = 0.0;
                          for (const auto &r : ctx.mtpIssue)
                              busy += r.busyTime();
                          return busy /
                                 static_cast<double>(ctx.mtpIssue.size());
                      });
    // Shard-summing stall gauges: sessions force one domain, so
    // sampling these mid-run never races a writer.
    reg.registerGauge("piuma.mtp.stall.nnz", telemetry::GaugeKind::Rate,
                      [&ctx] {
                          double sum = 0.0;
                          for (const auto &cs : ctx.coreStats)
                              sum += cs.nnzStallNs;
                          return sum;
                      });
    reg.registerGauge("piuma.mtp.stall.row_offset",
                      telemetry::GaugeKind::Rate, [&ctx] {
                          double sum = 0.0;
                          for (const auto &cs : ctx.coreStats)
                              sum += cs.rowOffsetStallNs;
                          return sum;
                      });
    reg.registerGauge("piuma.mtp.stall.feature",
                      telemetry::GaugeKind::Rate, [&ctx] {
                          double sum = 0.0;
                          for (const auto &cs : ctx.coreStats)
                              sum += cs.featureStallNs;
                          return sum;
                      });
    reg.registerGauge("piuma.mtp.stall.dma_queue",
                      telemetry::GaugeKind::Rate, [&ctx] {
                          double sum = 0.0;
                          for (const auto &cs : ctx.coreStats)
                              sum += cs.dmaQueueStallNs;
                          return sum;
                      });
}

/** Publish the run's final aggregates as registry counters. */
void
publishRunCounters(const SpmmRunStats &stats, telemetry::Registry &reg)
{
    reg.counter("piuma.spmm.makespan_ns").add(stats.makespanNs);
    reg.counter("piuma.spmm.flop").add(stats.flop);
    reg.counter("piuma.spmm.bytes_read").add(stats.bytesRead);
    reg.counter("piuma.spmm.bytes_written").add(stats.bytesWritten);
    reg.counter("piuma.spmm.nnz_reads")
        .add(static_cast<double>(stats.nnzReads));
    reg.counter("piuma.spmm.stall.nnz_ns").add(stats.nnzStallNs);
    reg.counter("piuma.spmm.stall.row_offset_ns")
        .add(stats.rowOffsetStallNs);
    reg.counter("piuma.spmm.stall.feature_ns").add(stats.featureStallNs);
    reg.counter("piuma.spmm.stall.dma_queue_ns")
        .add(stats.dmaQueueStallNs);
    reg.counter("piuma.spmm.issue_ns").add(stats.issueNs);
    // Stall-attribution taxonomy + critical path (PR 7 observability).
    reg.counter("piuma.spmm.stall.memory_ns").add(stats.stallMemoryNs);
    reg.counter("piuma.spmm.stall.network_ns").add(stats.stallNetworkNs);
    reg.counter("sim.critical_path_events")
        .add(static_cast<double>(stats.criticalPathEvents));
    reg.counter("sim.events").add(static_cast<double>(stats.simEvents));
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

    // A telemetry session or monitor hub shares single-threaded
    // geometry with the run; their presence keeps it on one domain
    // (domainPlan warns when Parallel was explicit).
    const bool attached =
        session != nullptr ||
        (controls != nullptr && controls->monitor != nullptr);
    const sim::DomainSet::Options opts =
        MemorySystem::domainPlan(cfg, controls, attached);
    RunContext ctx(csr, embedding_dim, cfg, opts);

    if (controls != nullptr) {
        ctx.memory.setFaultInjector(controls->faults);
        ctx.faults = controls->faults;
        ctx.domains.setRunLimits(controls->limits);
        if (controls->monitor != nullptr) {
            // Monitors observe spans the model computes anyway and
            // never schedule events, so the simulated result stays
            // bit-identical (the determinism tests pin this).
            sim::MonitorHub &hub = *controls->monitor;
            hub.beginRun(cfg.numCores, cfg.mtpsPerCore);
            ctx.monitor = &hub;
            for (unsigned m = 0;
                 m < static_cast<unsigned>(ctx.mtpIssue.size()); ++m) {
                ctx.mtpIssue[m].attachMonitor(
                    hub.issueTimeline(m / cfg.mtpsPerCore));
            }
            ctx.memory.attachMonitor(&hub);
        }
    }

    if (session != nullptr) {
        session->beginKernel(std::string("spmm/") +
                             spmmAlgorithmName(alg) +
                             "/k=" + std::to_string(embedding_dim));
        ctx.memory.attachTelemetry(session);
        attachRunGauges(ctx, *session);
    }

    // Pre-draw the stuck-core hazards in tid order while the main
    // injector is still single-threaded: the run itself only ever
    // touches forked per-entity streams, so Parallel mode never
    // contends on shared generator state.
    if (ctx.faults != nullptr) {
        ctx.stuckAtStart.resize(cfg.totalThreads());
        for (auto &s : ctx.stuckAtStart)
            s = ctx.faults->stuckCore() ? 1 : 0;
    }

    if (alg == SpmmAlgorithm::Dma) {
        ctx.dmaEngines.reserve(cfg.numCores);
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            ctx.dmaEngines.emplace_back(ctx.engineOfCore(c), ctx.memory,
                                        cfg, c);
        }
        // Attach after every engine is emplaced: the gauges capture
        // `this`, which must not move again.
        if (session != nullptr) {
            for (auto &engine : ctx.dmaEngines)
                engine.attachTelemetry(session);
        }
        if (controls != nullptr && controls->faults != nullptr) {
            for (auto &engine : ctx.dmaEngines)
                engine.setFaultInjector(controls->faults);
        }
        if (ctx.monitor != nullptr) {
            for (unsigned c = 0; c < cfg.numCores; ++c)
                ctx.dmaEngines[c].attachMonitor(
                    ctx.monitor->dmaTimeline(c));
        }
        for (auto &engine : ctx.dmaEngines)
            engine.run();
        for (unsigned tid = 0; tid < cfg.totalThreads(); ++tid)
            dmaThreadProc(ctx, tid);
    } else {
        for (unsigned tid = 0; tid < cfg.totalThreads(); ++tid)
            loopUnrolledThreadProc(ctx, tid);
    }

    // The sampler rides the dispatch loop (it never schedules events),
    // so the run still ends exactly when the workload drains.
    if (session != nullptr && session->samplePeriodNs() > 0.0) {
        ctx.domains.attachObserver(&session->sampler(),
                                   session->samplePeriodNs());
    }

    const auto wall_start = std::chrono::steady_clock::now();
    const sim::SimTime makespan = ctx.domains.run();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    // Unrecoverable faults surface *after* the run drains: coroutines
    // never throw through the engine (that would std::terminate), they
    // record the fault, bail, and let the entry point raise the typed
    // error here. The queues were drained on the way out, so there is
    // no deadlock to race against. The per-core fault shards reduce
    // deterministically: earliest detection wins, ties to the lowest
    // core — the same answer for every domain count and mode.
    const RunContext::CoreStats *first_fault = nullptr;
    for (const RunContext::CoreStats &cs : ctx.coreStats) {
        if (!cs.faulted)
            continue;
        if (first_fault == nullptr ||
            cs.faultWhenNs < first_fault->faultWhenNs)
            first_fault = &cs;
    }
    if (first_fault != nullptr) {
        throw sim::SimFaultError(
            first_fault->faultSite, first_fault->faultWhenNs,
            ctx.faults != nullptr ? ctx.faults->config().maxRetries + 1
                                  : 1);
    }
    for (const auto &engine : ctx.dmaEngines) {
        if (engine.stats().failed) {
            throw sim::SimFaultError(
                engine.stats().failedDetail, makespan,
                ctx.faults != nullptr ? ctx.faults->config().maxRetries + 1
                                      : 1);
        }
    }

    SpmmRunStats stats;
    stats.makespanNs = makespan;
    stats.flop = 2.0 * static_cast<double>(csr.numEdges()) * embedding_dim;
    stats.gflops = makespan > 0 ? stats.flop / makespan : 0.0;
    stats.bytesRead = ctx.memory.bytesRead();
    stats.bytesWritten = ctx.memory.bytesWritten();
    stats.bytesServed = ctx.memory.sliceBytesServed();
    stats.memUtilization = ctx.memory.averageSliceUtilization(makespan);
    stats.maxMemUtilization = ctx.memory.maxSliceUtilization(makespan);
    stats.netUtilization = ctx.memory.averageNetworkUtilization(makespan);
    stats.memAccesses = ctx.memory.totalAccesses();
    stats.memRemoteAccesses = ctx.memory.remoteAccesses();
    stats.remoteAccessFraction = ctx.memory.remoteAccessFraction();
    if (stats.bytesServed > 0.0) {
        double max_slice = 0.0;
        for (size_t i = 0; i < ctx.memory.numSlices(); ++i)
            max_slice = std::max(max_slice, ctx.memory.sliceBytes(i));
        stats.maxSliceBytesFraction =
            max_slice * static_cast<double>(ctx.memory.numSlices()) /
            stats.bytesServed;
    }
    // Reduce the per-core shards in core-index order (a fixed-order
    // sum, so the floating-point result is domain/mode-invariant).
    double nnz_latency_sum = 0.0;
    uint64_t nnz_reads = 0;
    double recovery_stall = 0.0;
    uint64_t stuck_resets = 0;
    for (const RunContext::CoreStats &cs : ctx.coreStats) {
        stats.nnzStallNs += cs.nnzStallNs;
        stats.rowOffsetStallNs += cs.rowOffsetStallNs;
        stats.featureStallNs += cs.featureStallNs;
        stats.dmaQueueStallNs += cs.dmaQueueStallNs;
        stats.issueNs += cs.issueNs;
        stats.stallMemoryNs += cs.stallMemNs;
        stats.stallNetworkNs += cs.stallNetNs;
        nnz_latency_sum += cs.nnzLatencySum;
        nnz_reads += cs.nnzReads;
        recovery_stall += cs.recoveryStallNs;
        stuck_resets += cs.stuckResets;
    }
    if (makespan > 0.0) {
        double issue_busy = 0.0;
        for (const auto &r : ctx.mtpIssue)
            issue_busy += r.busyTime();
        stats.issueUtilization =
            issue_busy /
            (static_cast<double>(ctx.mtpIssue.size()) * makespan);
        double dma_busy = 0.0;
        for (const auto &engine : ctx.dmaEngines)
            dma_busy += engine.stats().busyNs;
        if (!ctx.dmaEngines.empty()) {
            stats.dmaUtilization =
                dma_busy /
                (static_cast<double>(ctx.dmaEngines.size()) * makespan);
        }
    }
    stats.criticalPathEvents = ctx.domains.criticalPathEvents();
    stats.criticalPathParallelism =
        stats.criticalPathEvents > 0
            ? static_cast<double>(ctx.domains.eventsProcessed()) /
                  static_cast<double>(stats.criticalPathEvents)
            : 0.0;
    if (ctx.monitor != nullptr) {
        const sim::OccupancyReport rep = ctx.monitor->report(makespan);
        stats.latencyHidingEffectiveness =
            rep.latencyHidingEffectiveness;
        stats.exposedStallNs = rep.exposedStallNs;
    }
    stats.nnzReads = nnz_reads;
    stats.avgNnzLatencyNs =
        nnz_reads ? nnz_latency_sum / static_cast<double>(nnz_reads)
                  : 0.0;
    for (const auto &engine : ctx.dmaEngines)
        stats.dmaDescriptors += engine.stats().descriptors;
    // Recovery accounting: memory counters own transaction-level
    // retries/timeouts; DMA engines add their descriptor re-issues.
    // Goodput is demanded traffic only — bytesServed additionally
    // counts the bandwidth retries burned, and the conservation
    // invariant bytesServed == goodputBytes + retriedBytes is what
    // the soak test pins.
    stats.retries = ctx.memory.retries();
    stats.timeoutsFired = ctx.memory.timeoutsFired() + stuck_resets;
    stats.recoveryNs = recovery_stall + ctx.memory.postedRecoveryNs();
    for (const auto &engine : ctx.dmaEngines) {
        stats.retries += engine.stats().retries;
        stats.timeoutsFired += engine.stats().timeoutsFired;
        stats.recoveryNs += engine.stats().recoveryNs;
    }
    stats.retriedBytes = ctx.memory.retriedBytes();
    stats.goodputBytes = stats.bytesRead + stats.bytesWritten;
    stats.stuckResets = stuck_resets;
    stats.simEvents = ctx.domains.eventsProcessed();
    stats.wallSeconds = wall;
    stats.eventsPerSec =
        wall > 0.0 ? static_cast<double>(stats.simEvents) / wall : 0.0;
    stats.peakEventQueueDepth = ctx.domains.peakQueueDepth();
    stats.domains = ctx.domains.domains();
    stats.lookaheadNs = stats.domains > 1 ? ctx.domains.lookaheadNs() : 0.0;
    stats.windows = ctx.domains.windows();
    stats.crossDomainPosts = ctx.domains.crossDomainPosts();

    if (session != nullptr) {
        publishRunCounters(stats, session->registry());
        session->endKernel(stats.makespanNs);
    }

    return stats;
}

} // namespace pgcn::piuma
