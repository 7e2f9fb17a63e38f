/**
 * @file
 * Fig. 7: consequences of MTP thread count on latency insensitivity.
 * An 8-core (1-die) PIUMA system, DRAM latency swept 45..720 ns,
 * threads per MTP swept 1..16, for embedding dimensions 8 and 256;
 * plus the execution-time breakdown for K=8 (bottom) explaining the
 * effect via NNZ reads on the critical path.
 *
 * Expected shape: with 16 threads/MTP even extreme latency is
 * tolerated; with 1 thread/MTP the insensitivity is lost for K=8 but
 * largely retained for K=256 (each NNZ read feeds 256/8 = 32x more
 * DMA traffic, shrinking its relative window).
 *
 * This is the longest DES sweep in the bench suite (60 simulations),
 * so it supports --checkpoint=<jsonl> / --resume / --sweep-json=<path>
 * for crash-resilient restarts and --jobs N to spread the independent
 * points across worker threads (identical output, see
 * bench::SweepDriver). --domains N additionally splits each simulated
 * machine into per-node event domains on their own threads
 * (sim::DomainSet); output stays byte-identical for any count — the
 * two knobs compose.
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
    const graph::Csr csr = bench::desProxy(12);
    std::cout << "proxy: |V|=" << csr.numVertices()
              << " |E|=" << csr.numEdges() << "\n\n";

    // Phase 1: enqueue every simulation point (configs captured by
    // value; the callbacks run on sweep workers).
    struct TopPoint
    {
        unsigned k;
        unsigned threads;
        double scale;
        size_t idx;
    };
    std::vector<TopPoint> top_points;
    for (unsigned k : {8u, 256u}) {
        for (unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
            for (double scale : {1.0, 2.0, 4.0, 8.0, 16.0}) {
                piuma::PiumaConfig cfg = piuma::PiumaConfig::singleDie();
                cfg.threadsPerMtp = threads;
                cfg.dramLatencyScale = scale;
                const std::string key =
                    "top/k=" + std::to_string(k) +
                    "/threads=" + std::to_string(threads) + "/lat-scale=" +
                    std::to_string(static_cast<unsigned>(scale));
                const size_t idx = driver.add(
                    key,
                    [&driver, &csr, k,
                     cfg](const parallel::SweepContext &ctx) {
                        const auto s = simulateSpmm(
                            csr, k, cfg, SpmmAlgorithm::Dma, ctx.session,
                            ctx.controls);
                        driver.throughput(ctx).add(s);
                        return JsonlCheckpoint::Values{
                            {"gflops", s.gflops}};
                    });
                top_points.push_back(TopPoint{k, threads, scale, idx});
            }
        }
    }

    struct BottomPoint
    {
        unsigned threads;
        double scale;
        size_t idx;
    };
    std::vector<BottomPoint> bottom_points;
    for (unsigned threads : {1u, 16u}) {
        for (double scale : {1.0, 8.0}) {
            piuma::PiumaConfig cfg = piuma::PiumaConfig::singleDie();
            cfg.threadsPerMtp = threads;
            cfg.dramLatencyScale = scale;
            const std::string key =
                "bottom/threads=" + std::to_string(threads) +
                "/lat-scale=" +
                std::to_string(static_cast<unsigned>(scale));
            const size_t idx = driver.add(
                key,
                [&driver, &csr, cfg](const parallel::SweepContext &ctx) {
                    const auto s =
                        simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma,
                                     ctx.session, ctx.controls);
                    driver.throughput(ctx).add(s);
                    return JsonlCheckpoint::Values{
                        {"dma_queue_stall_ns", s.dmaQueueStallNs},
                        {"makespan_ns", s.makespanNs},
                        {"nnz_stall_ns", s.nnzStallNs},
                        {"row_offset_stall_ns", s.rowOffsetStallNs},
                    };
                });
            bottom_points.push_back(BottomPoint{threads, scale, idx});
        }
    }

    driver.run();

    // Phase 2: render both tables in submission order on this thread.
    Table top("Fig 7 (top): latency sweep x threads/MTP, 8-core PIUMA",
              {"K", "threads/MTP", "latency ns", "GF/s",
               "vs 45ns baseline"});
    double base = 0.0;
    for (const TopPoint &p : top_points) {
        const auto *point = driver.result(p.idx);
        if (!point)
            continue;
        piuma::PiumaConfig cfg = piuma::PiumaConfig::singleDie();
        cfg.threadsPerMtp = p.threads;
        cfg.dramLatencyScale = p.scale;
        const double gflops = point->at("gflops");
        if (p.scale == 1.0)
            base = gflops;
        top.row()
            .cell(static_cast<uint64_t>(p.k))
            .cell(static_cast<uint64_t>(p.threads))
            .cell(cfg.effectiveDramLatencyNs(), 0)
            .cell(gflops, 2)
            .cell(gflops / base, 3);
    }
    top.print(std::cout);

    Table bottom("Fig 7 (bottom): K=8 thread-time breakdown, 8-core "
                 "PIUMA (per-thread averages)",
                 {"threads/MTP", "latency ns", "nnz stall us",
                  "dma-queue stall us", "row-offset stall us",
                  "makespan us"});
    for (const BottomPoint &p : bottom_points) {
        const auto *point = driver.result(p.idx);
        if (!point)
            continue;
        piuma::PiumaConfig cfg = piuma::PiumaConfig::singleDie();
        cfg.threadsPerMtp = p.threads;
        cfg.dramLatencyScale = p.scale;
        const double t = cfg.totalThreads();
        bottom.row()
            .cell(static_cast<uint64_t>(p.threads))
            .cell(cfg.effectiveDramLatencyNs(), 0)
            .cell(point->at("nnz_stall_ns") / t / 1e3, 2)
            .cell(point->at("dma_queue_stall_ns") / t / 1e3, 2)
            .cell(point->at("row_offset_stall_ns") / t / 1e3, 2)
            .cell(point->at("makespan_ns") / 1e3, 2);
    }
    bottom.print(std::cout);

    std::cout << "Reading: at 1 thread/MTP the NNZ stall grows with "
                 "latency and starves the DMA engine; at 16 threads "
                 "another thread always has a descriptor ready.\n";
    driver.finish();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runBenchMain([&] { return benchMain(argc, argv); });
}
