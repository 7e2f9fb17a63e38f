/**
 * @file
 * Discussion study (paper Section VI, "Graph Partitioning"):
 * distributed GNN systems cut the graph across nodes and pay
 * ghost-vertex exchange every layer; PIUMA's DGAS needs none of it.
 * This bench partitions proxy graphs 2..64 ways with the two standard
 * 1D strategies and prices the per-layer ghost exchange at a typical
 * cluster interconnect bandwidth, next to the PIUMA node-model SpMM
 * time for the same (proxy-scaled) workload.
 *
 * Runs on the shared sweep driver (--jobs N / --checkpoint= /
 * --resume / --sweep-json=); partitioning the 2^14 proxy 64 ways is
 * the closest thing this bench has to an expensive point.
 */
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "graph/partition.hpp"
#include "graph/reorder.hpp"
#include "piuma/spmm_programs.hpp"

using namespace pgcn;

namespace {

int
benchMain(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bench::SweepDriver driver(args);
    const graph::Csr csr = bench::desProxy(14);
    constexpr uint64_t kDim = 128;
    // 200 Gb/s InfiniBand-class per-node injection bandwidth.
    constexpr double kNetBytesPerNs = 25.0;

    std::cout << "proxy: |V|=" << csr.numVertices()
              << " |E|=" << csr.numEdges() << ", K=" << kDim << "\n\n";

    const double feature_matrix_bytes =
        static_cast<double>(csr.numVertices()) * kDim * 4.0;

    struct Point
    {
        const char *strategy;
        unsigned parts;
        size_t idx;
    };
    std::vector<Point> points;
    for (const char *strategy : {"hash", "range"}) {
        for (unsigned parts : {2u, 4u, 8u, 16u, 32u, 64u}) {
            const bool hash = std::string(strategy) == "hash";
            const std::string key = "partition/" +
                                    std::string(strategy) +
                                    "/parts=" + std::to_string(parts);
            const size_t idx = driver.add(
                key, [&csr, hash, parts](const parallel::SweepContext &) {
                    const auto assignment =
                        hash ? graph::hashPartition(csr.numVertices(),
                                                    parts)
                             : graph::rangePartitionByEdges(csr, parts);
                    const auto stats = graph::evaluatePartition(
                        csr, assignment, parts);
                    const double ghost_bytes =
                        graph::ghostExchangeBytes(
                            stats, csr.numVertices(), kDim);
                    return JsonlCheckpoint::Values{
                        {"cut_fraction", stats.cutFraction},
                        {"ghost_bytes", ghost_bytes},
                        {"max_load_imbalance", stats.maxLoadImbalance},
                        {"replication_factor",
                         stats.replicationFactor}};
                });
            points.push_back(Point{strategy, parts, idx});
        }
    }

    // --- Reordering x partitioning grid -----------------------------
    // Does a locality-aware relabeling change what the 1D partitioners
    // can do? Hash partitioning is order-blind by construction; range
    // partitioning follows vertex ids, so a clustered order directly
    // lowers its cut. Baseline is a seeded shuffle of the same proxy
    // (the generator's near-sorted order would flatter "identity").
    const graph::Csr shuffled_base =
        graph::shuffleOrder(csr.numVertices(), 7).applyToCsr(csr);
    const std::vector<graph::ReorderPass> grid_passes = {
        graph::ReorderPass::Shuffle, graph::ReorderPass::Identity,
        graph::ReorderPass::DegreeSort, graph::ReorderPass::Rcm,
        graph::ReorderPass::Island};
    struct OrderView
    {
        graph::ReorderPass pass;
        graph::Csr csr;
    };
    std::vector<OrderView> views;
    for (const graph::ReorderPass pass : grid_passes) {
        auto isl = graph::makeOrder(
            pass, shuffled_base, /*seed=*/11,
            std::max<graph::VertexId>(
                1, shuffled_base.numVertices() / 64));
        views.push_back(
            OrderView{pass, isl.perm.applyToCsr(shuffled_base)});
    }

    struct GridPoint
    {
        const char *order;
        const char *strategy;
        unsigned parts;
        size_t idx;
    };
    std::vector<GridPoint> grid;
    for (const OrderView &view : views) {
        const char *order = graph::reorderPassName(view.pass);
        for (const char *strategy : {"hash", "range"}) {
            const bool hash = std::string(strategy) == "hash";
            for (unsigned parts : {4u, 16u, 64u}) {
                const std::string key =
                    "reorder/" + std::string(order) + "/" + strategy +
                    "/parts=" + std::to_string(parts);
                const size_t idx = driver.add(
                    key,
                    [&view, hash,
                     parts](const parallel::SweepContext &) {
                        const auto assignment =
                            hash ? graph::hashPartition(
                                       view.csr.numVertices(), parts)
                                 : graph::rangePartitionByEdges(
                                       view.csr, parts);
                        const auto stats = graph::evaluatePartition(
                            view.csr, assignment, parts);
                        return JsonlCheckpoint::Values{
                            {"cut_fraction", stats.cutFraction},
                            {"replication_factor",
                             stats.replicationFactor},
                            {"max_load_imbalance",
                             stats.maxLoadImbalance}};
                    });
                grid.push_back(GridPoint{order, strategy, parts, idx});
            }
        }
    }

    // --- Reordering x placement on the DES --------------------------
    // Same orderings on a DES-scale proxy: hashed placement must be
    // order-blind; blocked placement (+ owner-computes, interleave
    // off) turns the clustered orders into a lower remote-access
    // fraction at the price of slice-traffic skew.
    const graph::Csr des_csr = bench::desProxy(12);
    const graph::Csr des_base =
        graph::shuffleOrder(des_csr.numVertices(), 7)
            .applyToCsr(des_csr);
    std::vector<OrderView> des_views;
    for (const graph::ReorderPass pass : grid_passes) {
        auto isl = graph::makeOrder(
            pass, des_base, /*seed=*/11,
            std::max<graph::VertexId>(1,
                                      des_base.numVertices() / 32));
        des_views.push_back(
            OrderView{pass, isl.perm.applyToCsr(des_base)});
    }
    struct SimPoint
    {
        const char *order;
        const char *placement;
        size_t idx;
    };
    std::vector<SimPoint> sims;
    for (const OrderView &view : des_views) {
        const char *order = graph::reorderPassName(view.pass);
        for (const char *placement : {"hashed", "blocked"}) {
            const bool blocked = std::string(placement) == "blocked";
            const std::string key = "reorder_sim/" +
                                    std::string(order) +
                                    "/placement=" + placement;
            const size_t idx = driver.add(
                key,
                [&driver, &view,
                 blocked](const parallel::SweepContext &ctx) {
                    piuma::PiumaConfig cfg;
                    cfg.numCores = 8;
                    if (blocked) {
                        cfg.rowPlacement = piuma::RowPlacement::Blocked;
                        cfg.dgasFineInterleave = false;
                    }
                    const auto sim = piuma::simulateSpmm(
                        view.csr, 32, cfg, piuma::SpmmAlgorithm::Dma,
                        ctx.session, ctx.controls);
                    driver.throughput(ctx).add(sim);
                    return JsonlCheckpoint::Values{
                        {"remote_access_fraction",
                         sim.remoteAccessFraction},
                        {"max_slice_bytes_fraction",
                         sim.maxSliceBytesFraction},
                        {"makespan_ns", sim.makespanNs}};
                });
            sims.push_back(SimPoint{order, placement, idx});
        }
    }

    driver.run();

    Table table("Partitioned distributed SpMM vs DGAS",
                {"strategy", "parts", "cut %", "replication",
                 "imbalance", "ghost MiB/layer", "ghost / |H|",
                 "exchange (us)"});
    for (const Point &p : points) {
        const auto *v = driver.result(p.idx);
        if (!v)
            continue;
        const double ghost_bytes = v->at("ghost_bytes");
        // All-to-all exchange limited by the busiest node's
        // injection bandwidth (ghost bytes / parts per node).
        const double exchange_ns =
            ghost_bytes / p.parts / kNetBytesPerNs;
        table.row()
            .cell(p.strategy)
            .cell(static_cast<uint64_t>(p.parts))
            .cell(100.0 * v->at("cut_fraction"), 1)
            .cell(v->at("replication_factor"), 2)
            .cell(v->at("max_load_imbalance"), 2)
            .cell(ghost_bytes / (1024.0 * 1024.0), 1)
            .cell(ghost_bytes / feature_matrix_bytes, 2)
            .cell(exchange_ns / 1e3, 1);
    }
    table.print(std::cout);
    std::cout << "Reading: by 16 parts >90% of edges are cut on the "
                 "skewed proxy and every layer ships >5x the entire "
                 "feature matrix between nodes as ghost copies — "
                 "traffic (and partitioning cost) PIUMA's shared "
                 "address space avoids entirely (Section VI).\n\n";

    Table grid_table("Reordering x 1D partitioning (2^14 proxy)",
                     {"order", "strategy", "parts", "cut %",
                      "replication", "imbalance"});
    for (const GridPoint &p : grid) {
        const auto *v = driver.result(p.idx);
        if (!v)
            continue;
        grid_table.row()
            .cell(p.order)
            .cell(p.strategy)
            .cell(static_cast<uint64_t>(p.parts))
            .cell(100.0 * v->at("cut_fraction"), 1)
            .cell(v->at("replication_factor"), 2)
            .cell(v->at("max_load_imbalance"), 2);
    }
    grid_table.print(std::cout);
    std::cout << "Reading: hash partitioning is order-blind (cut "
                 "identical across orderings); range partitioning "
                 "inherits whatever locality the relabeling built, so "
                 "rcm/island cut less than the shuffled baseline.\n\n";

    Table sim_table("Reordering x row placement on the DES (2^12 "
                    "proxy, 8 cores, DMA)",
                    {"order", "placement", "remote %", "slice skew",
                     "makespan (us)"});
    for (const SimPoint &p : sims) {
        const auto *v = driver.result(p.idx);
        if (!v)
            continue;
        sim_table.row()
            .cell(p.order)
            .cell(p.placement)
            .cell(100.0 * v->at("remote_access_fraction"), 1)
            .cell(v->at("max_slice_bytes_fraction"), 2)
            .cell(v->at("makespan_ns") / 1e3, 1);
    }
    sim_table.print(std::cout);
    std::cout << "Reading: with hashed placement the remote-access "
                 "fraction is flat across orderings — the DGAS "
                 "trade-off the paper describes. Blocked placement "
                 "plus owner-computes rewards the clustered orders "
                 "with fewer remote transactions, paying with "
                 "slice-traffic skew on the hubs.\n";
    driver.finish();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runBenchMain([&] { return benchMain(argc, argv); });
}
