/**
 * @file
 * Dense matrix-multiplication on the PIUMA discrete-event model:
 * H' = H W with H of shape |V| x K_in streamed from DRAM, W resident
 * in the per-core scratchpads, and the MACs issued on the scalar MTP
 * pipelines (PIUMA has no SIMD unit — the paper's core limitation at
 * large embedding dimensions).
 *
 * Validates the node model's dense roofline: at large K the simulated
 * throughput converges to the scalar-pipeline peak; at tiny K it is
 * bandwidth-bound on the H stream.
 */
#ifndef PGCN_PIUMA_DENSE_PROGRAMS_HPP
#define PGCN_PIUMA_DENSE_PROGRAMS_HPP

#include <cstdint>

#include "piuma/config.hpp"
#include "sim/fault.hpp"

namespace pgcn::telemetry {
class Session;
} // namespace pgcn::telemetry

namespace pgcn::piuma {

/** Outcome of one simulated dense update. */
struct DenseRunStats
{
    double makespanNs = 0.0;     ///< simulated end-to-end time
    double flop = 0.0;           ///< 2 |V| K_in K_out
    double gflops = 0.0;         ///< achieved throughput
    double memUtilization = 0.0; ///< slice-controller utilisation
    double issueUtilization = 0.0; ///< mean MTP issue-slot occupancy
    uint64_t simEvents = 0;      ///< DES events executed

    /// Recovery counters (always on; all zero without fault
    /// injection). Same semantics as SpmmRunStats.
    uint64_t retries = 0;       ///< transaction re-issues
    uint64_t timeoutsFired = 0; ///< drop timeouts + stuck-core resets
    uint64_t stuckResets = 0;   ///< stuck-core watchdog resets
    double goodputBytes = 0.0;  ///< demanded traffic delivered
    double recoveryNs = 0.0;    ///< modeled timeout + backoff time

    // Simulator (host) throughput, measured around Engine::run().
    double wallSeconds = 0.0;      ///< host wall-clock of the run
    double eventsPerSec = 0.0;     ///< simEvents / wallSeconds
    uint64_t peakEventQueueDepth = 0; ///< max pending events observed
};

/**
 * Simulate the dense update (|V| x k_in) * (k_in x k_out) with rows
 * distributed over all hardware threads. Weights are assumed
 * broadcast to scratchpads beforehand (their footprint is K_in x
 * K_out x 4 bytes, kilobytes at GCN scale).
 *
 * @param num_vertices Rows of H.
 * @param k_in Input feature dimension.
 * @param k_out Output feature dimension.
 * @param cfg PIUMA system description.
 * @param session Optional telemetry sink: once the run has returned,
 *        recordRun() records it there; null records nothing.
 * @param controls Optional robustness controls (fault injector,
 *        Engine::RunLimits and monitor hub), as for simulateSpmm.
 *        Null means no perturbation and no limits, bit-identical to
 *        builds predating this parameter. The dense program always
 *        runs on one domain; an explicit `domains > 1` or
 *        DomainMode::Parallel logs a warning saying so.
 *
 * @throws ConfigError / ShapeError on invalid inputs,
 *         sim::SimLimitError on an armed budget breach, and
 *         sim::SimFaultError when an injected fault exhausts its
 *         retry budget (raised after the run drains).
 */
DenseRunStats simulateDenseMm(uint64_t num_vertices, uint64_t k_in,
                              uint64_t k_out, const PiumaConfig &cfg,
                              telemetry::Session *session = nullptr,
                              const sim::SimControls *controls = nullptr);

/**
 * Record a returned dense run into @p session: a kernel span
 * "dense/k_in=<k_in>/k_out=<k_out>" of @p stats' makespan on the
 * session's clock, and the piuma.dense.* and sim.events counters
 * taken from @p stats.
 */
void recordRun(telemetry::Session &session, const DenseRunStats &stats,
               uint64_t k_in, uint64_t k_out);

} // namespace pgcn::piuma

#endif // PGCN_PIUMA_DENSE_PROGRAMS_HPP
