/**
 * @file
 * Fig. 6: impact of DRAM bandwidth (top) and latency (bottom) on the
 * DMA SpMM across 2/4/8-core PIUMA systems for embedding dimensions
 * 8 and 256.
 *
 * Expected shape: GFLOPS scale ~linearly with per-slice bandwidth
 * (top); performance is insensitive to DRAM latency up to ~360 ns
 * with the default 16 threads/MTP (bottom).
 */
#include <iostream>

#include "bench_util.hpp"
#include "piuma/spmm_programs.hpp"

using namespace pgcn;
using piuma::SpmmAlgorithm;

namespace {

int
benchMain()
{
    const graph::Csr csr = bench::desProxy(12);
    std::cout << "proxy: |V|=" << csr.numVertices()
              << " |E|=" << csr.numEdges() << "\n\n";

    Table top("Fig 6 (top): DRAM bandwidth sweep, DMA SpMM GFLOP/s",
              {"K", "cores", "bw scale", "slice GB/s", "GF/s",
               "GF/s per bw"});
    for (unsigned k : {8u, 256u}) {
        for (unsigned cores : {2u, 4u, 8u}) {
            for (double scale : {0.25, 0.5, 1.0, 1.5, 2.0}) {
                piuma::PiumaConfig cfg;
                cfg.numCores = cores;
                cfg.dramBandwidthScale = scale;
                const auto s =
                    simulateSpmm(csr, k, cfg, SpmmAlgorithm::Dma);
                top.row()
                    .cell(static_cast<uint64_t>(k))
                    .cell(static_cast<uint64_t>(cores))
                    .cell(scale, 2)
                    .cell(cfg.effectiveSliceBandwidth(), 1)
                    .cell(s.gflops, 2)
                    .cell(s.gflops / cfg.aggregateBandwidth(), 3);
            }
        }
    }
    top.print(std::cout);

    Table bottom("Fig 6 (bottom): DRAM latency sweep, DMA SpMM GFLOP/s",
                 {"K", "cores", "latency ns", "GF/s",
                  "vs 45ns baseline"});
    for (unsigned k : {8u, 256u}) {
        for (unsigned cores : {2u, 4u, 8u}) {
            double base = 0.0;
            for (double scale : {1.0, 2.0, 4.0, 8.0, 16.0}) {
                piuma::PiumaConfig cfg;
                cfg.numCores = cores;
                cfg.dramLatencyScale = scale;
                const auto s =
                    simulateSpmm(csr, k, cfg, SpmmAlgorithm::Dma);
                if (scale == 1.0)
                    base = s.gflops;
                bottom.row()
                    .cell(static_cast<uint64_t>(k))
                    .cell(static_cast<uint64_t>(cores))
                    .cell(cfg.effectiveDramLatencyNs(), 0)
                    .cell(s.gflops, 2)
                    .cell(s.gflops / base, 3);
            }
        }
    }
    bottom.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runFixedBenchMain(argc, argv, benchMain);
}
