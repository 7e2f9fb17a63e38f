/**
 * @file
 * End-to-end GCN inference on the PIUMA discrete-event model: each
 * layer's aggregation (SpMM program) and update (dense program) run
 * on the simulator back to back, yielding a fully simulated
 * per-kernel breakdown — the DES counterpart of the analytical
 * PiumaPlatform used for node-scale projections.
 */
#ifndef PGCN_PIUMA_GCN_SIM_HPP
#define PGCN_PIUMA_GCN_SIM_HPP

#include <vector>

#include "graph/csr.hpp"
#include "piuma/config.hpp"
#include "piuma/dense_programs.hpp"
#include "piuma/spmm_programs.hpp"

namespace pgcn::piuma {

/** One layer's feature dimensions. */
struct GcnSimLayer
{
    uint64_t kIn;
    uint64_t kOut;
};

/** Simulated timing of one full GCN inference. */
struct GcnSimResult
{
    double totalNs = 0.0;  ///< sum over layers and kernels
    double spmmNs = 0.0;   ///< aggregation time
    double denseNs = 0.0;  ///< update time
    std::vector<SpmmRunStats> spmmLayers;   ///< per-layer SpMM detail
    std::vector<DenseRunStats> denseLayers; ///< per-layer dense detail

    // Simulator (host) throughput of the whole call.
    uint64_t simEvents = 0;        ///< DES events across all kernels
    double wallSeconds = 0.0;      ///< host wall-clock of the call
    double eventsPerSec = 0.0;     ///< simEvents / wallSeconds
    uint64_t peakEventQueueDepth = 0; ///< max pending events observed

    /** Fraction of total time in the sparse aggregation. */
    double
    spmmFraction() const
    {
        return totalNs > 0 ? spmmNs / totalNs : 0.0;
    }

    /** Fraction of total time in the dense update. */
    double
    denseFraction() const
    {
        return totalNs > 0 ? denseNs / totalNs : 0.0;
    }
};

/** How one unobserved simulateGcn call spends the host's threads. */
struct GcnHostPlan
{
    unsigned workers;      ///< layers simulated at once on the host
    unsigned layerDomains; ///< event domains of each SpMM layer's plan
};

/**
 * The host-thread budget of simulateGcn (DESIGN.md §15): @p layers
 * layers on @p host_threads threads get W = min(layers, host_threads)
 * workers, and each SpMM layer's auto plan is capped at
 * max(1, host_threads / W) threads (MemorySystem::autoDomainCount),
 * so W x layerDomains never exceeds the host's threads. One layer
 * keeps the machine-wide auto plan.
 */
GcnHostPlan gcnHostPlan(const PiumaConfig &cfg, size_t layers,
                        unsigned host_threads);

/**
 * Simulate a whole GCN: for each layer, the dense update H W at
 * (kIn -> kOut) followed by the aggregation A (H W) at kOut (the
 * transform-then-aggregate order the paper profiles).
 *
 * Simulated order: the kernels run back to back, as a
 * bulk-synchronous runtime schedules them; every kernel starts from
 * a fresh machine at t = 0 and the totals are sums over layers.
 *
 * Host order: with at least two layers, the layers are independent
 * simulations, so gcnHostPlan(cfg, layers.size(),
 * MemorySystem::hostThreads()) workers simulate them at the same time
 * (a layer's dense update, then its SpMM, on one worker) and the
 * results are reduced in layer order after every worker has joined.
 * The SpMM layers run on auto event domains within the plan's cap
 * (whole dies per domain), the dense updates on one engine. The
 * result is the same bits at any host thread and domain count; when
 * layers throw, the lowest failing layer's exception is rethrown,
 * the one a layer-by-layer loop raises.
 *
 * @param csr Normalised adjacency (a down-scaled proxy at DES cost).
 * @param layers Per-layer dimensions (e.g. from
 *        core::GcnModelConfig::layerDims()).
 * @param cfg PIUMA system description.
 * @param alg SpMM implementation for the aggregation phase.
 * @param session Optional telemetry sink: after every layer has run,
 *        each layer's dense and SpMM runs are recorded in layer order
 *        (recordRun), so the session's clock strings them into one
 *        trace timeline. It changes neither the host order nor the
 *        domain plans.
 */
GcnSimResult simulateGcn(const graph::Csr &csr,
                         const std::vector<GcnSimLayer> &layers,
                         const PiumaConfig &cfg,
                         SpmmAlgorithm alg = SpmmAlgorithm::Dma,
                         telemetry::Session *session = nullptr);

} // namespace pgcn::piuma

#endif // PGCN_PIUMA_GCN_SIM_HPP
