/**
 * @file
 * Fig. 4: execution-time breakdown on GPU (A100-40GB, data imported
 * from [16] in the paper; reproduced here by the analytical model).
 *
 * Expected shape: offload dominates every graph that fits on the
 * device; papers does not fit, is sampled on the host, and sampling
 * plus offload consume nearly all of its execution time.
 */
#include <iostream>

#include "bench_util.hpp"
#include "core/platforms.hpp"

using namespace pgcn;

namespace {

int
benchMain()
{
    core::GpuPlatform gpu;

    Table table("Fig 4: GPU (A100-40GB) GCN breakdown",
                {"dataset", "K", "fits", "%Offload", "%Sampling",
                 "%SpMM", "%Dense", "%Glue", "total (ms)"});
    for (const auto &d : graph::ogbDatasets()) {
        for (uint64_t k : core::GcnModelConfig::embeddingSweep()) {
            const auto model = bench::sweepModel(d, k);
            const auto bd = gpu.timeGcn(d, model);
            table.row()
                .cell(d.name)
                .cell(static_cast<uint64_t>(k))
                .cell(gpu.fits(d, model) ? "yes" : "NO")
                .cell(100.0 * bd.offloadFraction(), 1)
                .cell(100.0 * bd.samplingFraction(), 1)
                .cell(100.0 * bd.spmmFraction(), 1)
                .cell(100.0 * bd.denseFraction(), 1)
                .cell(100.0 * bd.glueFraction(), 1)
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
