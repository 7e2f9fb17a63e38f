/**
 * @file
 * Ablation: DMA-engine memory-level parallelism and queue depth.
 * The latency tolerance of the DMA SpMM comes from (a) the bounded
 * descriptor queue decoupling producers from the engine and (b) the
 * engine keeping many transfers in flight. This bench sweeps both,
 * showing that a single-outstanding-transfer engine (inflight=1)
 * throws away most of the bandwidth at scale, and that a very shallow
 * descriptor queue re-couples the NNZ-read latency to the engine.
 *
 * Runs on the shared sweep driver: --jobs N parallelises the
 * simulations, --checkpoint=/--resume/--sweep-json= make the sweep
 * restartable.
 */
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "piuma/spmm_programs.hpp"

using namespace pgcn;
using piuma::SpmmAlgorithm;

namespace {

int
benchMain(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bench::SweepDriver driver(args);
    const graph::Csr csr = bench::desProxy(13);
    std::cout << "proxy: |V|=" << csr.numVertices()
              << " |E|=" << csr.numEdges() << "\n\n";

    const std::vector<unsigned> windows{256u, 64u, 16u, 4u, 1u};
    std::vector<size_t> inflight_idx;
    for (unsigned window : windows) {
        piuma::PiumaConfig cfg;
        cfg.numCores = 16;
        cfg.dmaMaxInflight = window;
        inflight_idx.push_back(driver.add(
            "inflight/window=" + std::to_string(window),
            [&driver, &csr, cfg](const parallel::SweepContext &ctx) {
                const auto s =
                    simulateSpmm(csr, 64, cfg, SpmmAlgorithm::Dma,
                                 ctx.session, ctx.controls);
                driver.throughput(ctx).add(s);
                return JsonlCheckpoint::Values{
                    {"gflops", s.gflops},
                    {"mem_util", s.memUtilization}};
            }));
    }

    const std::vector<unsigned> depths{64u, 16u, 4u, 1u};
    std::vector<size_t> queue_idx;
    for (unsigned depth : depths) {
        piuma::PiumaConfig cfg = piuma::PiumaConfig::singleDie();
        cfg.dmaQueueDepth = depth;
        cfg.dramLatencyScale = 4.0;
        queue_idx.push_back(driver.add(
            "queue/depth=" + std::to_string(depth),
            [&driver, &csr, cfg](const parallel::SweepContext &ctx) {
                const auto s =
                    simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma,
                                 ctx.session, ctx.controls);
                driver.throughput(ctx).add(s);
                return JsonlCheckpoint::Values{
                    {"dma_queue_stall_ns", s.dmaQueueStallNs},
                    {"gflops", s.gflops}};
            }));
    }

    driver.run();

    Table inflight("Ablation: DMA in-flight transfer window "
                   "(16 cores, K=64)",
                   {"max inflight", "GF/s", "mem util",
                    "vs inflight=256"});
    double base = 0.0;
    for (size_t i = 0; i < windows.size(); ++i) {
        const auto *v = driver.result(inflight_idx[i]);
        if (!v)
            continue;
        if (windows[i] == 256)
            base = v->at("gflops");
        inflight.row()
            .cell(static_cast<uint64_t>(windows[i]))
            .cell(v->at("gflops"), 2)
            .cell(v->at("mem_util"), 2)
            .cell(v->at("gflops") / base, 2);
    }
    inflight.print(std::cout);

    Table queue("Ablation: DMA descriptor queue depth "
                "(8 cores, K=8, 4x DRAM latency)",
                {"queue depth", "GF/s", "queue stall/thr us",
                 "vs depth=64"});
    base = 0.0;
    for (size_t i = 0; i < depths.size(); ++i) {
        const auto *v = driver.result(queue_idx[i]);
        if (!v)
            continue;
        piuma::PiumaConfig cfg = piuma::PiumaConfig::singleDie();
        if (depths[i] == 64)
            base = v->at("gflops");
        queue.row()
            .cell(static_cast<uint64_t>(depths[i]))
            .cell(v->at("gflops"), 2)
            .cell(v->at("dma_queue_stall_ns") / cfg.totalThreads() / 1e3,
                  2)
            .cell(v->at("gflops") / base, 2);
    }
    queue.print(std::cout);
    driver.finish();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runBenchMain([&] { return benchMain(argc, argv); });
}
