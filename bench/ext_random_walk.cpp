/**
 * @file
 * Extension (paper Section VI, "Graph Clustering and Sampling"):
 * random-walk neighbourhood sampling on PIUMA versus CPU. The walk is
 * a dependent pointer chase — pure latency, no bandwidth — so CPU
 * throughput is pinned by (cores x overlapped chases / latency) while
 * PIUMA throughput scales with its thousands of hardware threads and
 * barely notices DRAM latency.
 */
#include <iostream>

#include "bench_util.hpp"
#include "piuma/walk_programs.hpp"
#include "xeon/timing.hpp"

using namespace pgcn;

namespace {

int
benchMain()
{
    const graph::Csr csr = bench::desProxy(13);
    std::cout << "proxy: |V|=" << csr.numVertices()
              << " |E|=" << csr.numEdges() << "\n\n";

    const auto xeon_cfg = xeon::XeonConfig::platinum8380();
    const double cpu_rate =
        xeon::randomWalkStepsPerNs(xeon_cfg, xeon_cfg.physicalCores());
    std::cout << "dual-socket Xeon model: " << cpu_rate * 1e3
              << " M steps/s (80 cores, "
              << xeon_cfg.chasesOverlappedPerCore
              << " chases overlapped per core)\n\n";

    Table table("Random walk on PIUMA (DES) vs Xeon (model)",
                {"cores", "threads/MTP", "latency ns", "M steps/s",
                 "vs xeon", "avg step ns"});
    const uint64_t walks = 1u << 13;
    const uint32_t length = 16;
    for (unsigned cores : {2u, 8u}) {
        for (unsigned threads : {1u, 4u, 16u}) {
            for (double lat_scale : {1.0, 8.0}) {
                piuma::PiumaConfig cfg;
                cfg.numCores = cores;
                cfg.threadsPerMtp = threads;
                cfg.dramLatencyScale = lat_scale;
                const auto s =
                    piuma::simulateRandomWalk(csr, walks, length, cfg);
                table.row()
                    .cell(static_cast<uint64_t>(cores))
                    .cell(static_cast<uint64_t>(threads))
                    .cell(cfg.effectiveDramLatencyNs(), 0)
                    .cell(s.stepsPerNs * 1e3, 1)
                    .cell(s.stepsPerNs / cpu_rate, 2)
                    .cell(s.avgStepLatencyNs, 0);
            }
        }
    }
    table.print(std::cout);
    std::cout << "Reading: an 8-core PIUMA slice of a node already "
                 "rivals the 80-core Xeon on this latency-bound "
                 "kernel; a full node (32x more cores) leaves it far "
                 "behind — the Section VI argument for sampling-based "
                 "GNNs on PIUMA.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runFixedBenchMain(argc, argv, benchMain);
}
