/**
 * @file
 * The two PIUMA SpMM implementations of Section IV-B, executed on the
 * discrete-event timing model:
 *
 *  - Loop-unrolled: MTP threads perform the aggregation themselves.
 *    Feature vectors are fetched as stall-on-use 64-byte cache-line
 *    loads (the compiler unrolls eight embedding values per group)
 *    and MACs occupy the scalar issue pipeline. NNZ reads and feature
 *    lines serialize per thread because each MTP thread has a single
 *    in-flight instruction.
 *
 *  - DMA: threads only read NNZs and emit DMA descriptors; the
 *    per-core DMA engine performs vectorised read-multiply-accumulate
 *    against the scratchpad buffer and atomically writes finished
 *    rows, freeing the pipelines and pipelining memory latency away.
 *
 * Both follow the edge-parallel work division of Algorithm 2: the
 * |E| non-zeros are split evenly over all hardware threads, each
 * thread binary-searches its starting row, and row results are
 * written back with (remote) atomics at row boundaries.
 */
#ifndef PGCN_PIUMA_SPMM_PROGRAMS_HPP
#define PGCN_PIUMA_SPMM_PROGRAMS_HPP

#include <cstdint>

#include "graph/csr.hpp"
#include "piuma/config.hpp"
#include "sim/fault.hpp"

namespace pgcn::telemetry {
class Session;
} // namespace pgcn::telemetry

namespace pgcn::piuma {

/** Which SpMM implementation to simulate. */
enum class SpmmAlgorithm
{
    LoopUnrolled,
    Dma,
};

/** Name string for reports. */
const char *spmmAlgorithmName(SpmmAlgorithm alg);

/** Timing/traffic outcome of one simulated SpMM. */
struct SpmmRunStats
{
    double makespanNs = 0.0;     ///< simulated end-to-end time
    double flop = 0.0;           ///< 2 * |E| * K
    double gflops = 0.0;         ///< achieved throughput
    double bytesRead = 0.0;      ///< DRAM read traffic
    double bytesWritten = 0.0;   ///< DRAM write traffic
    /// Bytes the slice controllers serviced; conservation requires
    /// bytesServed == goodputBytes + retriedBytes (fp tolerance) —
    /// dropped attempts still burned bandwidth, so with fault
    /// injection bytesServed exceeds the demanded traffic by exactly
    /// the retried bytes. Without faults retriedBytes == 0 and this
    /// collapses to bytesServed == bytesRead + bytesWritten.
    double bytesServed = 0.0;
    double memUtilization = 0.0; ///< mean slice-controller utilisation
    double maxMemUtilization = 0.0; ///< hottest slice utilisation
    double netUtilization = 0.0;  ///< mean network-port utilisation

    /// DGAS locality counters (always on; see MemorySystem). Striped
    /// objects count one transaction per interleave chunk.
    uint64_t memAccesses = 0;       ///< slice transactions issued
    uint64_t memRemoteAccesses = 0; ///< transactions crossing the net
    double remoteAccessFraction = 0.0; ///< remote / total
    /// Hottest slice's served bytes over the per-slice mean (1.0 ==
    /// perfectly even traffic; grows when placement concentrates load).
    double maxSliceBytesFraction = 0.0;

    /// Per-thread stall attribution, summed over all threads (ns).
    double nnzStallNs = 0.0;      ///< waiting on NNZ (col/val) reads
    double rowOffsetStallNs = 0.0;///< waiting on row-offset reads
    double featureStallNs = 0.0;  ///< loop-unrolled feature-line waits
    double dmaQueueStallNs = 0.0; ///< blocked pushing DMA descriptors
    double issueNs = 0.0;         ///< pipeline issue (incl. MACs)

    /// Stall-attribution taxonomy (always on, like the DGAS locality
    /// counters): the per-site stalls above re-bucketed by *where* the
    /// wait was served. Memory = local slice, network = crossed the
    /// interconnect (classified by the access's first slice), queue =
    /// dmaQueueStallNs. The recovery portion of each wait (timeouts +
    /// backoffs of injected drops) is carved out into its own bucket,
    /// so stallMemoryNs + stallNetworkNs + thread-recovery ==
    /// nnzStallNs + rowOffsetStallNs + featureStallNs exactly; without
    /// faults the recovery term is zero and the old identity holds.
    double stallMemoryNs = 0.0;  ///< thread-waits served locally
    double stallNetworkNs = 0.0; ///< thread-waits that crossed the net

    /// Mean MTP issue-slot utilisation over the makespan (always on).
    double issueUtilization = 0.0;
    /// Mean DMA-engine busy fraction over the makespan (always on;
    /// 0 for the loop-unrolled algorithm).
    double dmaUtilization = 0.0;

    /// Event-graph critical path (always on): length of the longest
    /// dependency chain of events, and total events over it — the
    /// run's available parallelism, an upper bound on achievable
    /// speedup independent of any resource.
    uint64_t criticalPathEvents = 0;
    double criticalPathParallelism = 0.0; ///< simEvents / cpEvents

    /// Latency-hiding effectiveness (monitor-only; -1 when no
    /// MonitorHub was attached): the fraction of per-core stall-window
    /// time covered by issue activity on the same core. The exposed
    /// remainder is the StallCause::NoRunnable bucket in ns.
    double latencyHidingEffectiveness = -1.0;
    double exposedStallNs = 0.0;

    double avgNnzLatencyNs = 0.0; ///< mean observed NNZ read latency
    uint64_t nnzReads = 0;        ///< NNZ line fetches
    uint64_t dmaDescriptors = 0;  ///< DMA data descriptors processed
    uint64_t simEvents = 0;       ///< DES events executed

    /// Recovery counters (always on; all zero without fault injection).
    /// Memory transaction re-issues plus DMA descriptor re-issues.
    uint64_t retries = 0;
    /// Timeouts fired: one per dropped transaction/descriptor, plus
    /// one per stuck-core watchdog reset.
    uint64_t timeoutsFired = 0;
    /// Stuck-core hazards recovered by the watchdog reset.
    uint64_t stuckResets = 0;
    /// Demanded traffic actually delivered (bytesRead + bytesWritten);
    /// the degradation-envelope campaign divides by makespan for
    /// goodput GB/s.
    double goodputBytes = 0.0;
    /// Bandwidth burned by re-issued transactions; see bytesServed.
    double retriedBytes = 0.0;
    /// Total modeled recovery time (timeout + backoff spans) summed
    /// over threads and DMA engines (ns).
    double recoveryNs = 0.0;

    // Simulator (host) throughput, measured around Engine::run().
    double wallSeconds = 0.0;      ///< host wall-clock of the run
    double eventsPerSec = 0.0;     ///< simEvents / wallSeconds
    uint64_t peakEventQueueDepth = 0; ///< max pending events observed

    // The run's domain plan and window protocol (host fields: they
    // depend on the domain count, so, like the fields above, they are
    // exempt from the cross-count contract and kept out of every
    // digest and checkpoint).
    unsigned domains = 1;          ///< event domains the run used
    double lookaheadNs = 0.0;      ///< window lookahead (0 on one domain)
    uint64_t windows = 0;          ///< barrier rounds (0 on one domain)
    uint64_t crossDomainPosts = 0; ///< keyed messages between domains
};

/**
 * Simulate one SpMM (H_out = A * H_in) on PIUMA.
 *
 * @param csr The sparse matrix (a normalised adjacency).
 * @param embedding_dim K, the feature-vector length.
 * @param cfg PIUMA system description.
 * @param alg Which implementation to run.
 * @param session Optional telemetry sink: once the run has returned,
 *        recordRun() records it there. Null (the default) records
 *        nothing; either way the simulated result is the same.
 * @param controls Optional robustness controls: a seeded fault
 *        injector perturbing model timings and/or dropping
 *        transactions, descriptors, and threads (recovered under the
 *        modeled timeout/retry/backoff protocol), and watchdog budgets
 *        (Engine::RunLimits) for the run. Null (the default) means no
 *        perturbation and no limits, with bit-identical results to
 *        builds predating this parameter.
 *
 * @throws ConfigError / ShapeError on invalid inputs,
 *         sim::SimDeadlockError if the model wedges,
 *         sim::SimLimitError when an armed watchdog budget is hit, and
 *         sim::SimFaultError when an injected fault exhausts its retry
 *         budget (raised after the run drains — a drop schedule can
 *         degrade the run but never deadlock it).
 */
SpmmRunStats simulateSpmm(const graph::Csr &csr, unsigned embedding_dim,
                          const PiumaConfig &cfg, SpmmAlgorithm alg,
                          telemetry::Session *session = nullptr,
                          const sim::SimControls *controls = nullptr);

/**
 * Record a returned SpMM run into @p session: a kernel span
 * "spmm/<alg>/k=<embedding_dim>" of @p stats' makespan on the
 * session's clock, and counters (piuma.spmm.*, piuma.dma.descriptors
 * for the DMA algorithm, sim.events, sim.critical_path_events) taken
 * from @p stats, so they are the same at any domain count.
 */
void recordRun(telemetry::Session &session, const SpmmRunStats &stats,
               SpmmAlgorithm alg, unsigned embedding_dim);

/**
 * Classify what bounds further scaling of @p stats' run: a saturated
 * resource ("resource:mem|net|issue|dma", any utilisation >= 85%,
 * checked first because a full resource serialises the event graph as
 * a side effect), else the event graph itself ("critical-path" —
 * fewer independent event chains than threads to fill), else
 * "latency" (the run is dominated by unhidden access latency). This
 * is the fig8 `bound` column.
 */
const char *scalingBoundName(const SpmmRunStats &stats,
                             unsigned total_threads);

} // namespace pgcn::piuma

#endif // PGCN_PIUMA_SPMM_PROGRAMS_HPP
