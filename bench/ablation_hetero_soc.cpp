/**
 * @file
 * Future-work study (paper Section VI): a heterogeneous SoC pairing
 * PIUMA dies with dense-compute accelerators, and Graphite-style
 * layer fusion [9]. Sweeps the accelerator's dense throughput and
 * reports how much of the K=256 Dense-MM bottleneck it recovers,
 * and what fusion saves on top.
 *
 * Runs on the shared sweep driver (--jobs N / --checkpoint= /
 * --resume / --sweep-json=). The points are analytical, so the
 * telemetry, --faults= and --domains flags are errors here.
 */
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

    struct HeteroPoint
    {
        const graph::DatasetInfo *dataset;
        double accel;
        size_t idx;
    };
    std::vector<HeteroPoint> hetero_points;
    for (const char *name : {"arxiv", "products", "papers"}) {
        const auto &d = graph::datasetByName(name);
        for (double accel : {0.0, 2000.0, 8000.0, 32000.0}) {
            const std::string key =
                "hetero/" + std::string(name) + "/accel=" +
                std::to_string(static_cast<unsigned>(accel));
            const size_t idx = driver.add(
                key, [&d, accel](const parallel::SweepContext &) {
                    const auto model = bench::sweepModel(d, 256);
                    piuma::NodeModelParams params;
                    params.denseAcceleratorGflops = accel;
                    const core::PiumaPlatform node(
                        piuma::PiumaConfig::node(), params);
                    const auto bd = node.timeGcn(d, model);
                    return JsonlCheckpoint::Values{
                        {"dense_fraction", bd.denseFraction()},
                        {"total_ns", bd.totalNs()}};
                });
            hetero_points.push_back(HeteroPoint{&d, accel, idx});
        }
    }

    struct FusionPoint
    {
        const graph::DatasetInfo *dataset;
        uint64_t k;
        size_t idx;
    };
    std::vector<FusionPoint> fusion_points;
    for (const char *name : {"arxiv", "products", "papers"}) {
        const auto &d = graph::datasetByName(name);
        for (uint64_t k : {uint64_t{8}, uint64_t{256}}) {
            const std::string key = "fusion/" + std::string(name) +
                                    "/k=" + std::to_string(k);
            const size_t idx = driver.add(
                key, [&d, k](const parallel::SweepContext &) {
                    const auto model = bench::sweepModel(d, k);
                    piuma::NodeModelParams unfused;
                    piuma::NodeModelParams fused;
                    fused.fuseAggregationUpdate = true;
                    const core::PiumaPlatform a(
                        piuma::PiumaConfig::node(), unfused);
                    const core::PiumaPlatform b(
                        piuma::PiumaConfig::node(), fused);
                    return JsonlCheckpoint::Values{
                        {"fused_ns", b.timeGcn(d, model).totalNs()},
                        {"unfused_ns", a.timeGcn(d, model).totalNs()}};
                });
            fusion_points.push_back(FusionPoint{&d, k, idx});
        }
    }

    driver.run();

    Table hetero("Heterogeneous SoC: dense accelerator attached to a "
                 "PIUMA node (K=256)",
                 {"dataset", "accel GF/s", "total (ms)", "%Dense",
                  "speedup vs scalar"});
    double base = 0.0;
    for (const HeteroPoint &p : hetero_points) {
        const auto *v = driver.result(p.idx);
        if (!v)
            continue;
        if (p.accel == 0.0)
            base = v->at("total_ns");
        hetero.row()
            .cell(p.dataset->name)
            .cell(p.accel, 0)
            .cell(v->at("total_ns") / 1e6, 2)
            .cell(100.0 * v->at("dense_fraction"), 1)
            .cell(base / v->at("total_ns"), 2);
    }
    hetero.print(std::cout);

    Table fusion("Graphite-style layer fusion on a PIUMA node",
                 {"dataset", "K", "unfused (ms)", "fused (ms)",
                  "speedup"});
    for (const FusionPoint &p : fusion_points) {
        const auto *v = driver.result(p.idx);
        if (!v)
            continue;
        const double ta = v->at("unfused_ns");
        const double tb = v->at("fused_ns");
        fusion.row()
            .cell(p.dataset->name)
            .cell(p.k)
            .cell(ta / 1e6, 2)
            .cell(tb / 1e6, 2)
            .cell(ta / tb, 2);
    }
    fusion.print(std::cout);
    std::cout << "Reading: Graphite [9] reported ~1.3x from fusion on "
                 "SpMM-bound workloads; on PIUMA the benefit "
                 "concentrates at small K where aggregation traffic "
                 "dominates.\n";
    driver.finish();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runBenchMain([&] { return benchMain(argc, argv); });
}
