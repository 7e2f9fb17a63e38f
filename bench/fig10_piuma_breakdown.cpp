/**
 * @file
 * Fig. 10: execution-time breakdown for a PIUMA node, complementing
 * the CPU (Fig. 3) and GPU (Fig. 4) breakdowns.
 *
 * The per-kernel times are sourced from the telemetry counter
 * registry: the node model is attached to a registry and every
 * spmm/dense/glue evaluation accumulates into the
 * piuma.model.*_ns counters, so the table reads counter deltas around
 * each timeGcn() evaluation. This exercises the same path an external
 * metrics consumer would use, and cross-checks that the model
 * instrumentation accounts for every nanosecond timeGcn() reports.
 *
 * Expected shape: PIUMA accelerates SpMM so effectively that Dense MM
 * becomes the bottleneck as the embedding dimension grows — >75% of
 * time for arxiv/collab/mag/citation2/papers at K=256, and ~50-60%
 * even for the SpMM-heavy ppa/products.
 */
#include <iostream>

#include "bench_util.hpp"
#include "core/platforms.hpp"
#include "piuma/node_model.hpp"
#include "telemetry/registry.hpp"

using namespace pgcn;

namespace {

/** Counter snapshot of the three model kernels. */
struct ModelCounters
{
    double spmmNs;
    double denseNs;
    double glueNs;

    static ModelCounters
    snapshot(const telemetry::Registry &reg)
    {
        return ModelCounters{
            reg.counterValue("piuma.model.spmm_ns"),
            reg.counterValue("piuma.model.dense_ns"),
            reg.counterValue("piuma.model.glue_ns"),
        };
    }
};

int
benchMain()
{
    core::PiumaPlatform piuma_node;

    telemetry::Registry registry;
    piuma::setNodeModelTelemetry(&registry);

    Table table("Fig 10: PIUMA node GCN breakdown",
                {"dataset", "K", "%SpMM", "%Dense", "%Glue",
                 "SpMM (ms)", "Dense (ms)", "total (ms)"});
    for (const auto &d : graph::ogbDatasets()) {
        for (uint64_t k : core::GcnModelConfig::embeddingSweep()) {
            const auto before = ModelCounters::snapshot(registry);
            piuma_node.timeGcn(d, bench::sweepModel(d, k));
            const auto after = ModelCounters::snapshot(registry);
            const double spmm = after.spmmNs - before.spmmNs;
            const double dense = after.denseNs - before.denseNs;
            const double glue = after.glueNs - before.glueNs;
            const double total = spmm + dense + glue;
            table.row()
                .cell(d.name)
                .cell(static_cast<uint64_t>(k))
                .cell(100.0 * spmm / total, 1)
                .cell(100.0 * dense / total, 1)
                .cell(100.0 * glue / total, 1)
                .cell(spmm / 1e6, 2)
                .cell(dense / 1e6, 2)
                .cell(total / 1e6, 2);
        }
    }
    piuma::setNodeModelTelemetry(nullptr);
    table.print(std::cout);
    std::cout << "(breakdown sourced from the telemetry counter "
                 "registry: piuma.model.{spmm,dense,glue}_ns, "
              << registry.counterValue("piuma.model.spmm_calls") +
                     registry.counterValue("piuma.model.dense_calls") +
                     registry.counterValue("piuma.model.glue_calls")
              << " model evaluations)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runFixedBenchMain(argc, argv, benchMain);
}
