#include "piuma/node_model.hpp"

#include <cmath>

#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "piuma/spmm_programs.hpp"

namespace pgcn::piuma {

double
peakDenseGflops(const PiumaConfig &cfg, const NodeModelParams &params)
{
    return cfg.numCores * cfg.mtpsPerCore * cfg.clockGhz *
           params.denseFlopPerMtpCycle;
}

double
spmmTimeNs(const PiumaConfig &cfg, const model::SpmmWorkload &w,
           const NodeModelParams &params)
{
    PGCN_ASSERT(params.spmmEfficiency > 0.0 && params.spmmEfficiency <= 1.0,
                "SpMM efficiency must be in (0, 1], got "
                    << params.spmmEfficiency);
    const double bw = cfg.aggregateBandwidth();
    const auto est = model::estimateSpmm(w, bw, bw);
    return est.timeNs / params.spmmEfficiency +
           params.kernelLaunchOverheadNs;
}

double
denseMmTimeNs(const PiumaConfig &cfg, uint64_t num_vertices, uint64_t k_in,
              uint64_t k_out, const NodeModelParams &params)
{
    const double v = static_cast<double>(num_vertices);
    const double flop =
        2.0 * v * static_cast<double>(k_in) * static_cast<double>(k_out);
    // Stream H (V x k_in) in and H' (V x k_out) out; the weight matrix
    // is small and assumed resident in scratchpads.
    const double bytes =
        v * (static_cast<double>(k_in) + static_cast<double>(k_out)) * 4.0;
    double peak = peakDenseGflops(cfg, params) * params.denseEfficiency;
    // Heterogeneous SoC: the accelerator complements (does not
    // replace) the scalar pipelines.
    peak += params.denseAcceleratorGflops;
    return model::rooflineTimeNs(flop, bytes, peak,
                                 cfg.aggregateBandwidth()) +
           params.kernelLaunchOverheadNs;
}

double
fusionSavingsNs(const PiumaConfig &cfg, uint64_t num_vertices,
                uint64_t k_out, const NodeModelParams &params)
{
    const double bytes = 2.0 * static_cast<double>(num_vertices) *
                         static_cast<double>(k_out) * 4.0;
    return bytes / cfg.aggregateBandwidth() +
           params.kernelLaunchOverheadNs;
}

double
glueTimeNs(const PiumaConfig &cfg, uint64_t num_vertices, uint64_t k,
           const NodeModelParams &params)
{
    const double bytes = 2.0 * static_cast<double>(num_vertices) *
                         static_cast<double>(k) * 4.0;
    return bytes / cfg.aggregateBandwidth() + params.kernelLaunchOverheadNs;
}

double
calibrateSpmmEfficiency(const PiumaConfig &cfg, unsigned embedding_dim,
                        uint64_t proxy_edges, uint64_t seed)
{
    // Proxy scale: keep average degree ~16 so NNZ/feature ratios are
    // representative of the OGB graphs.
    uint32_t scale = 10;
    while ((uint64_t{1} << scale) * 16 < proxy_edges && scale < 24)
        ++scale;
    const graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(scale, proxy_edges, graph::rmatSkewed(),
                            seed));
    const auto stats =
        simulateSpmm(csr, embedding_dim, cfg, SpmmAlgorithm::Dma);
    const double bw = cfg.aggregateBandwidth();
    const auto est = model::estimateSpmm(
        model::SpmmWorkload{csr.numVertices(), csr.numEdges(),
                            embedding_dim},
        bw, bw);
    return est.timeNs / stats.makespanNs;
}

} // namespace pgcn::piuma
