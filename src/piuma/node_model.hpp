/**
 * @file
 * Full-node PIUMA timing model for GCN layers.
 *
 * The discrete-event simulator (spmm_programs) validates that the DMA
 * SpMM achieves a large, latency-insensitive fraction of the
 * bandwidth-bound analytical model (the paper reports 80-90%, "up to
 * 88% of theoretical peak"). Node-scale experiments (Figs. 9 and 10,
 * 256 cores, full Table-I graphs) then use the analytical model
 * scaled by a measured efficiency factor — mirroring the paper, which
 * likewise projects node-scale numbers from down-scaled simulation
 * [18] and uses the observed peak FLOPS of [21] for Dense MM.
 */
#ifndef PGCN_PIUMA_NODE_MODEL_HPP
#define PGCN_PIUMA_NODE_MODEL_HPP

#include "model/spmm_model.hpp"
#include "piuma/config.hpp"

namespace pgcn::piuma {

/** Timing knobs for the node-level model. */
struct NodeModelParams
{
    /**
     * Fraction of the bandwidth-bound model SpMM achieves; default is
     * the paper's "within 10-20% of the analytical model" mid-point.
     * Calibrate with calibrateSpmmEfficiency() (a DES run on a proxy
     * graph) when affordable.
     */
    double spmmEfficiency = 0.85;

    /// FLOP per MTP-pipeline per cycle for dense kernels. A scalar
    /// MAC is 2 FLOP; dense update kernels additionally offload
    /// multiply-add work to the per-core DMA engines' in-memory
    /// operations ([21]), modelled as a further 2x, i.e. 4 FLOP per
    /// MTP-cycle of the core. Still orders of magnitude below any
    /// SIMD machine — the paper's core dense-MM limitation.
    double denseFlopPerMtpCycle = 4.0;

    /// Achieved fraction of peak FLOPS in dense kernels ([21]).
    double denseEfficiency = 0.85;

    /// Fixed software overhead per kernel launch (ns); PIUMA runs a
    /// lightweight runtime on the STPs, far below a host framework.
    double kernelLaunchOverheadNs = 2000.0;

    /**
     * Dense-compute accelerator attached to the node (paper Section
     * VI, "Heterogeneous SoC": PIUMA dies combined with dense units).
     * 0 disables it; a positive value (GFLOP/s) replaces the scalar
     * pipelines as the dense-MM peak while memory traffic still goes
     * through the DGAS.
     */
    double denseAcceleratorGflops = 0.0;

    /**
     * Graphite-style layer fusion (paper Section VII / [9]): fuse the
     * update into the aggregation so the intermediate H*W matrix is
     * never written to and re-read from DRAM. Saves 2 * |V| * K_out *
     * 4 bytes and one kernel launch per fused layer.
     */
    bool fuseAggregationUpdate = false;
};

/**
 * Peak dense-compute throughput of the configured system in GFLOP/s
 * (no SIMD units: MTP scalar pipelines only — the paper's core reason
 * PIUMA loses ground at large embedding dimensions).
 */
double peakDenseGflops(const PiumaConfig &cfg,
                       const NodeModelParams &params = {});

/**
 * SpMM execution time (ns) on the node model: the Eq. 1-5 bandwidth
 * bound at aggregate bandwidth, divided by the achieved efficiency.
 *
 * @param cfg System configuration.
 * @param w Workload (|V|, |E|, K).
 * @param params Model knobs.
 */
double spmmTimeNs(const PiumaConfig &cfg, const model::SpmmWorkload &w,
                  const NodeModelParams &params = {});

/**
 * Dense-update time (ns) for (|V| x k_in) * (k_in x k_out): roofline
 * over scalar-pipeline FLOPS and aggregate memory bandwidth.
 */
double denseMmTimeNs(const PiumaConfig &cfg, uint64_t num_vertices,
                     uint64_t k_in, uint64_t k_out,
                     const NodeModelParams &params = {});

/**
 * Element-wise glue time (ns): activation read-modify-write of the
 * |V| x k feature matrix at aggregate bandwidth plus launch overhead.
 */
double glueTimeNs(const PiumaConfig &cfg, uint64_t num_vertices, uint64_t k,
                  const NodeModelParams &params = {});

/**
 * Measure the SpMM efficiency (achieved / bandwidth-bound time) of
 * the DMA implementation by running the discrete-event simulator on a
 * proxy graph under @p cfg. Use the result as
 * NodeModelParams::spmmEfficiency to tie node-scale projections to
 * simulated behaviour.
 *
 * @param cfg System to simulate (keep numCores modest; DES cost grows
 *        with edges x cores).
 * @param embedding_dim K for the calibration run.
 * @param proxy_edges RMAT edge budget of the calibration graph.
 * @param seed Proxy-graph seed.
 */
double calibrateSpmmEfficiency(const PiumaConfig &cfg,
                               unsigned embedding_dim,
                               uint64_t proxy_edges = 1u << 19,
                               uint64_t seed = 42);

/**
 * DRAM traffic saved per layer by fusing update into aggregation
 * (intermediate matrix write + read eliminated), in nanoseconds at
 * aggregate bandwidth, plus one saved kernel launch.
 */
double fusionSavingsNs(const PiumaConfig &cfg, uint64_t num_vertices,
                       uint64_t k_out, const NodeModelParams &params = {});

} // namespace pgcn::piuma

#endif // PGCN_PIUMA_NODE_MODEL_HPP
