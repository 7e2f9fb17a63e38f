/**
 * @file
 * Fig. 9: single-node GCN performance of PIUMA and the A100 GPU
 * against the dual-socket Xeon baseline, across the embedding sweep.
 * Bars in the paper = whole-GCN speedup; diamonds = SpMM-kernel
 * speedup. Includes the synthetic low-locality power-16/power-22
 * graphs.
 *
 * Expected shape: PIUMA > 1x vs CPU everywhere, with the margin
 * shrinking as K grows (dense pressure); the GPU beats the CPU only
 * at higher K and collapses on papers (sampling); PIUMA's SpMM
 * advantage over the GPU is largest on the low-locality power
 * graphs, while the GPU wins small cached graphs (ddi, proteins).
 *
 * The PIUMA node model's SpMM efficiency is calibrated against the
 * discrete-event simulator before the sweep (printed below). The
 * (dataset, K) sweep itself runs on the shared sweep driver, so it
 * accepts --jobs N / --checkpoint= / --resume / --sweep-json=. Its
 * points are analytical, so the telemetry, --faults= and --domains
 * flags are errors here.
 */
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/platforms.hpp"

using namespace pgcn;

namespace {

int
benchMain(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, {}, /*simulates=*/false);
    bench::SweepDriver driver(args);

    // Calibrate the node model against the DES on an 8-core die.
    piuma::PiumaConfig calib_cfg = piuma::PiumaConfig::singleDie();
    piuma::NodeModelParams params;
    params.spmmEfficiency = std::min(
        1.0, piuma::calibrateSpmmEfficiency(calib_cfg, 64, 1u << 18));
    std::cout << "calibrated PIUMA SpMM efficiency (DES, 8 cores, "
                 "K=64): "
              << params.spmmEfficiency << "\n\n";

    const core::XeonPlatform cpu;
    const core::GpuPlatform gpu;
    const core::PiumaPlatform piuma_node(piuma::PiumaConfig::node(),
                                         params);

    // Enqueue one point per (dataset, K); the platform models are
    // immutable after construction, so workers share them read-only.
    const auto &datasets = graph::allDatasets();
    struct Point
    {
        const graph::DatasetInfo *dataset;
        uint64_t k;
        size_t idx;
    };
    std::vector<Point> points;
    for (const auto &d : datasets) {
        for (uint64_t k : core::GcnModelConfig::embeddingSweep()) {
            const std::string key = "speedup/" + std::string(d.name) +
                                    "/k=" + std::to_string(k);
            const size_t idx = driver.add(
                key,
                [&cpu, &gpu, &piuma_node, &d,
                 k](const parallel::SweepContext &) {
                    const auto model = bench::sweepModel(d, k);
                    const double cpu_total =
                        cpu.timeGcn(d, model).totalNs();
                    const double cpu_spmm = cpu.spmmOnlyNs(d, model);
                    return JsonlCheckpoint::Values{
                        {"gpu_fits", gpu.fits(d, model) ? 1.0 : 0.0},
                        {"gpu_gcn_x",
                         cpu_total / gpu.timeGcn(d, model).totalNs()},
                        {"gpu_spmm_x",
                         cpu_spmm / gpu.spmmOnlyNs(d, model)},
                        {"piuma_gcn_x",
                         cpu_total /
                             piuma_node.timeGcn(d, model).totalNs()},
                        {"piuma_spmm_x",
                         cpu_spmm / piuma_node.spmmOnlyNs(d, model)},
                    };
                });
            points.push_back(Point{&d, k, idx});
        }
    }

    driver.run();

    Table table("Fig 9: speedup vs dual-socket Xeon "
                "(GCN bars / SpMM diamonds)",
                {"dataset", "K", "piuma GCN x", "gpu GCN x",
                 "piuma SpMM x", "gpu SpMM x", "gpu fits"});
    for (const Point &p : points) {
        const auto *v = driver.result(p.idx);
        if (!v)
            continue;
        table.row()
            .cell(p.dataset->name)
            .cell(p.k)
            .cell(v->at("piuma_gcn_x"), 2)
            .cell(v->at("gpu_gcn_x"), 2)
            .cell(v->at("piuma_spmm_x"), 2)
            .cell(v->at("gpu_spmm_x"), 2)
            .cell(v->at("gpu_fits") != 0.0 ? "yes" : "NO");
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
