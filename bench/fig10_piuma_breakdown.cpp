/**
 * @file
 * Fig. 10: execution-time breakdown for a PIUMA node, complementing
 * the CPU (Fig. 3) and GPU (Fig. 4) breakdowns.
 *
 * The per-kernel times are the KernelBreakdown that
 * PiumaPlatform::timeGcn() returns for each dataset and K.
 *
 * Expected shape: PIUMA accelerates SpMM so effectively that Dense MM
 * becomes the bottleneck as the embedding dimension grows — >75% of
 * time for arxiv/collab/mag/citation2/papers at K=256, and ~50-60%
 * even for the SpMM-heavy ppa/products.
 */
#include <iostream>

#include "bench_util.hpp"
#include "core/platforms.hpp"

using namespace pgcn;

namespace {

int
benchMain()
{
    core::PiumaPlatform piuma_node;

    Table table("Fig 10: PIUMA node GCN breakdown",
                {"dataset", "K", "%SpMM", "%Dense", "%Glue",
                 "SpMM (ms)", "Dense (ms)", "total (ms)"});
    for (const auto &d : graph::ogbDatasets()) {
        for (uint64_t k : core::GcnModelConfig::embeddingSweep()) {
            const auto bd = piuma_node.timeGcn(d, bench::sweepModel(d, k));
            const double total = bd.spmmNs + bd.denseNs + bd.glueNs;
            table.row()
                .cell(d.name)
                .cell(static_cast<uint64_t>(k))
                .cell(100.0 * bd.spmmNs / total, 1)
                .cell(100.0 * bd.denseNs / total, 1)
                .cell(100.0 * bd.glueNs / total, 1)
                .cell(bd.spmmNs / 1e6, 2)
                .cell(bd.denseNs / 1e6, 2)
                .cell(total / 1e6, 2);
        }
    }
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runFixedBenchMain(argc, argv, benchMain);
}
