/**
 * @file
 * Quickstart: the minimal end-to-end use of the library.
 *
 *  1. Generate a graph (stand-in for loading your own edge list).
 *  2. Build the GCN-normalised adjacency A~ = D^-1/2 (A+I) D^-1/2.
 *  3. Run a 3-layer GCN inference with the real CPU kernels.
 *  4. Inspect the steady-state execution-time breakdown
 *     (SpMM / Dense MM / Glue).
 *
 * Build & run:  ./build/examples/quickstart [rmat_scale]
 */
#include <cstdlib>
#include <iostream>

#include "core/gcn.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/normalize.hpp"

int
main(int argc, char **argv)
{
    using namespace pgcn;

    const uint32_t scale =
        argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 12;

    // 1. A synthetic social-network-like graph: 2^scale vertices,
    //    average degree 16, heavy-tailed (Graph500 RMAT parameters).
    graph::Coo edges = graph::generateRmat(
        scale, (graph::EdgeId{1} << scale) * 16, graph::rmatSkewed(),
        /*seed=*/1);

    // 2. Kipf-Welling renormalisation: symmetrize, add self loops,
    //    scale by inverse-sqrt degrees.
    graph::Csr adjacency = graph::normalizedAdjacency(edges);
    const auto stats = graph::degreeStats(adjacency);
    std::cout << "graph: |V|=" << adjacency.numVertices()
              << " |E|=" << adjacency.numEdges()
              << " avg degree=" << stats.mean
              << " gini=" << stats.gini << "\n";

    // 3. A 3-layer GCN: 64-dim inputs -> 32 hidden -> 8 classes.
    core::GcnModelConfig config;
    config.inputDim = 64;
    config.hiddenDim = 32;
    config.outputDim = 8;
    config.numLayers = 3;
    core::GcnModel model(config);

    tensor::DenseMatrix features(adjacency.numVertices(),
                                 config.inputDim);
    features.fillRandom(/*seed=*/2, /*scale=*/0.5f);

    parallel::ThreadPool pool; // all hardware threads
    // Warm pass: the first call pays the one-time first-touch of this
    // thread's layer buffers, which later calls reuse. Time the next.
    model.infer(adjacency, features, pool);
    core::KernelBreakdown breakdown;
    const tensor::DenseMatrix logits =
        model.infer(adjacency, features, pool,
                    core::CpuSpmmKind::VertexParallel, &breakdown);

    // 4. Results.
    std::cout << "logits: " << logits.rows() << " x " << logits.cols()
              << "\n"
              << "steady-state breakdown (after one warm pass): SpMM "
              << breakdown.spmmNs / 1e6
              << " ms (" << 100.0 * breakdown.spmmFraction() << "%), "
              << "Dense MM " << breakdown.denseNs / 1e6 << " ms ("
              << 100.0 * breakdown.denseFraction() << "%), "
              << "Glue " << breakdown.glueNs / 1e6 << " ms\n";
    return 0;
}
