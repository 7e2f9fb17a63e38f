/**
 * @file
 * Fig. 5: comparing the two SpMM implementations on PIUMA against the
 * bandwidth-bound analytical model, strong-scaling 1..32 cores,
 * normalised to single-core DMA performance.
 *
 * Expected shape: the DMA implementation stays within 10-20% of the
 * model across the sweep; the loop-unrolled implementation tracks at
 * small core counts but falls below ~50% of the model past 8 cores as
 * remote latency lands on the stall-on-use pipelines. Trends hold for
 * K = 8, 64 and 256 (the paper highlights 256).
 */
#include <iostream>

#include "bench_util.hpp"
#include "model/spmm_model.hpp"
#include "piuma/spmm_programs.hpp"

using namespace pgcn;
using piuma::SpmmAlgorithm;

namespace {

int
benchMain()
{
    // Down-scaled proxy (methodology of [18]): 2^14 vertices, avg
    // degree 16 -> ~440k non-zeros after normalisation.
    const graph::Csr csr = bench::desProxy(14);
    std::cout << "proxy: |V|=" << csr.numVertices()
              << " |E|=" << csr.numEdges() << "\n\n";

    Table table("Fig 5: SpMM algorithms vs bandwidth model "
                "(normalised to 1-core DMA)",
                {"K", "cores", "model", "dma", "loop-unrolled",
                 "dma GF/s", "lu GF/s", "dma/model", "lu/model"});

    for (unsigned k : {8u, 64u, 256u}) {
        double base_gflops = 0.0;
        for (unsigned cores : {1u, 2u, 4u, 8u, 16u, 32u}) {
            piuma::PiumaConfig cfg;
            cfg.numCores = cores;
            const auto dma =
                simulateSpmm(csr, k, cfg, SpmmAlgorithm::Dma);
            const auto lu =
                simulateSpmm(csr, k, cfg, SpmmAlgorithm::LoopUnrolled);
            const double bw = cfg.aggregateBandwidth();
            const auto est = model::estimateSpmm(
                model::SpmmWorkload{csr.numVertices(), csr.numEdges(),
                                    k},
                bw, bw);
            if (cores == 1)
                base_gflops = dma.gflops;
            table.row()
                .cell(static_cast<uint64_t>(k))
                .cell(static_cast<uint64_t>(cores))
                .cell(est.gflops / base_gflops, 2)
                .cell(dma.gflops / base_gflops, 2)
                .cell(lu.gflops / base_gflops, 2)
                .cell(dma.gflops, 2)
                .cell(lu.gflops, 2)
                .cell(est.timeNs / dma.makespanNs, 2)
                .cell(est.timeNs / lu.makespanNs, 2);
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
