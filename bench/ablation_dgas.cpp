/**
 * @file
 * Ablation: fine-grained DGAS interleaving. PIUMA distributes the
 * address space across DRAM slices at 8-byte granularity; this bench
 * disables that (each feature row pinned to one slice) and measures
 * the cost on skewed graphs, where hub vertices then turn single
 * memory controllers into hotspots.
 *
 * DESIGN.md design-choice justification: without fine interleaving
 * the DMA SpMM loses a large fraction of its throughput on RMAT
 * graphs while the max-utilisation slice pegs at ~100%.
 *
 * Runs on the shared sweep driver (--jobs N / --checkpoint= /
 * --resume / --sweep-json=).
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

    // Both proxies built once on the calling thread; workers share
    // them read-only.
    const graph::Csr skewed_csr = graph::normalizedAdjacency(
        graph::generateRmat(13, 1u << 17, graph::rmatSkewed(), 21));
    const graph::Csr uniform_csr = graph::normalizedAdjacency(
        graph::generateRmat(13, 1u << 17, graph::rmatUniform(), 21));

    struct Point
    {
        bool skewed;
        unsigned cores;
        bool interleave;
        size_t idx;
    };
    std::vector<Point> points;
    for (bool skewed : {true, false}) {
        const graph::Csr &csr = skewed ? skewed_csr : uniform_csr;
        for (unsigned cores : {4u, 16u}) {
            for (bool interleave : {true, false}) {
                piuma::PiumaConfig cfg;
                cfg.numCores = cores;
                cfg.dgasFineInterleave = interleave;
                const std::string key =
                    std::string("dgas/graph=") +
                    (skewed ? "rmat-skewed" : "rmat-uniform") +
                    "/cores=" + std::to_string(cores) + "/interleave=" +
                    (interleave ? "8-byte" : "row-slice");
                const size_t idx = driver.add(
                    key,
                    [&driver, &csr,
                     cfg](const parallel::SweepContext &ctx) {
                        const auto s = simulateSpmm(
                            csr, 64, cfg, SpmmAlgorithm::Dma,
                            ctx.session, ctx.controls);
                        driver.throughput(ctx).add(s);
                        return JsonlCheckpoint::Values{
                            {"gflops", s.gflops},
                            {"makespan_ns", s.makespanNs},
                            {"max_slice_util", s.maxMemUtilization},
                            {"mem_util", s.memUtilization}};
                    });
                points.push_back(Point{skewed, cores, interleave, idx});
            }
        }
    }

    driver.run();

    Table table("Ablation: 8-byte DGAS interleave vs row-per-slice "
                "placement (DMA SpMM, K=64)",
                {"graph", "cores", "interleave", "GF/s", "mem util",
                 "max slice util", "slowdown"});
    double base = 0.0;
    for (const Point &p : points) {
        const auto *v = driver.result(p.idx);
        if (!v)
            continue;
        if (p.interleave)
            base = v->at("makespan_ns");
        table.row()
            .cell(p.skewed ? "rmat-skewed" : "rmat-uniform")
            .cell(static_cast<uint64_t>(p.cores))
            .cell(p.interleave ? "8-byte" : "row/slice")
            .cell(v->at("gflops"), 2)
            .cell(v->at("mem_util"), 2)
            .cell(v->at("max_slice_util"), 2)
            .cell(v->at("makespan_ns") / base, 2);
    }
    table.print(std::cout);
    driver.finish();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runBenchMain([&] { return benchMain(argc, argv); });
}
