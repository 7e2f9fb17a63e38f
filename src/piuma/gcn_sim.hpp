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

    // Simulator (host) throughput aggregated over all kernel runs.
    uint64_t simEvents = 0;        ///< DES events across all kernels
    double wallSeconds = 0.0;      ///< host wall-clock across kernels
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

/**
 * Simulate a whole GCN: for each layer, the dense update H W at
 * (kIn -> kOut) followed by the aggregation A (H W) at kOut (the
 * transform-then-aggregate order the paper profiles). Kernels run
 * sequentially, as a bulk-synchronous runtime schedules them. The
 * SpMM layers run on auto event domains (MemorySystem::domainPlan:
 * whole dies per domain on the host's threads), the dense updates on
 * one engine; the result is the same bits at any domain count.
 *
 * @param csr Normalised adjacency (a down-scaled proxy at DES cost).
 * @param layers Per-layer dimensions (e.g. from
 *        core::GcnModelConfig::layerDims()).
 * @param cfg PIUMA system description.
 * @param alg SpMM implementation for the aggregation phase.
 * @param session Optional telemetry sink, passed through to every
 *        kernel run; the session's global clock strings the layers
 *        into one trace timeline. Attaching one keeps the SpMM
 *        layers on one engine.
 */
GcnSimResult simulateGcn(const graph::Csr &csr,
                         const std::vector<GcnSimLayer> &layers,
                         const PiumaConfig &cfg,
                         SpmmAlgorithm alg = SpmmAlgorithm::Dma,
                         telemetry::Session *session = nullptr);

} // namespace pgcn::piuma

#endif // PGCN_PIUMA_GCN_SIM_HPP
