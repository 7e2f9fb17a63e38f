/**
 * @file
 * Fig. 3: execution-time breakdown on CPU for the OGB workloads using
 * a 3-layer GCN, hidden embedding dimension swept 8..256. Left axis
 * of the paper's figure: percent time in SpMM / Dense MM / Glue;
 * right axis: absolute SpMM and Dense MM time.
 *
 * Expected shape: SpMM dominates large/dense datasets (ppa, products,
 * ddi, proteins, papers >80%); the SpMM share grows with embedding
 * dimension as caching loses effectiveness; papers shows a growing
 * Glue share (activations evicted between kernels).
 */
#include <iostream>

#include "bench_util.hpp"
#include "core/platforms.hpp"

using namespace pgcn;

namespace {

int
benchMain()
{
    core::XeonPlatform cpu;

    Table table("Fig 3: CPU (dual-socket Xeon 8380) GCN breakdown",
                {"dataset", "K", "%SpMM", "%Dense", "%Glue",
                 "SpMM (ms)", "Dense (ms)", "total (ms)"});
    for (const auto &d : graph::ogbDatasets()) {
        for (uint64_t k : core::GcnModelConfig::embeddingSweep()) {
            const auto bd = cpu.timeGcn(d, bench::sweepModel(d, k));
            table.row()
                .cell(d.name)
                .cell(static_cast<uint64_t>(k))
                .cell(100.0 * bd.spmmFraction(), 1)
                .cell(100.0 * bd.denseFraction(), 1)
                .cell(100.0 * bd.glueFraction(), 1)
                .cell(bd.spmmNs / 1e6, 2)
                .cell(bd.denseNs / 1e6, 2)
                .cell(bd.totalNs() / 1e6, 2);
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
