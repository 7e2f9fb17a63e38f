/**
 * @file
 * Fig. 8: strong scaling of SpMM on PIUMA versus Xeon using the
 * products graph.
 *  - Left: system bandwidth vs core count for both machines; PIUMA
 *    scales linearly and crosses the Xeon at ~16 cores, while the
 *    Xeon saturates at the socket level and *degrades* past 80
 *    threads (hyper-threading).
 *  - Middle: SpMM throughput strong scaling (DES for PIUMA on the
 *    down-scaled products proxy, analytical for Xeon at published
 *    scale, both normalised to 1-core PIUMA).
 *  - Right: execution-time/traffic breakdown of a 16-core PIUMA
 *    system for K in {8, 64, 256}: the NNZ-read share shrinks as K
 *    grows.
 *
 * The DES points support --checkpoint=<jsonl> / --resume /
 * --sweep-json=<path> (a killed sweep recomputes only the missing
 * simulations) and --jobs N (independent points run on worker
 * threads; the checkpoint and consolidated JSON stay byte-identical
 * to a serial run, see bench::SweepDriver). --domains N splits each
 * simulated machine into per-node event domains on their own threads
 * (sim::DomainSet), again with byte-identical output. The monitors
 * shard with the run, so a monitored point keeps its domain plan: the
 * CI smokes `cmp` the checkpoint, sweep JSON and --occupancy= CSV of
 * --domains 4 and --domains auto against the serial engine.
 *
 * Every DES point runs with a sim::MonitorHub attached (disable with
 * --no-monitors), so the middle panel also reports, per core count:
 * issue-slot occupancy, the stall-attribution breakdown (memory vs
 * network wait per thread), latency-hiding effectiveness (fraction of
 * stall time covered by runnable threads), critical-path parallelism,
 * and which bound limits scaling at that point (critical-path vs a
 * saturated resource vs latency). --occupancy=<csv> dumps the raw
 * per-resource occupancy timelines of every point; it needs the
 * monitors and a fresh run (no --resume, no --mega=), where each
 * point's hub is filled. CI diffs stdout against
 * results/fig8_strong_scaling.txt.
 *
 * --mega=<cores> replaces the whole figure with ONE full-machine-scale
 * DES point (scale-14 RMAT proxy, K=16, DMA SpMM) at the given core
 * count — the EXPERIMENTS.md big-machine walkthrough, where --domains
 * is measured against the paper's 16K-core / 1M-thread configuration
 * instead of the figure's 1-32 core column.
 */
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "model/spmm_model.hpp"
#include "piuma/spmm_programs.hpp"
#include "sim/monitor.hpp"
#include "xeon/timing.hpp"

using namespace pgcn;
using piuma::SpmmAlgorithm;

namespace {

int
benchMain(int argc, char **argv)
{
    std::optional<unsigned> mega_cores;
    std::string occupancy_path;
    bool monitors = true;
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        {{"--mega=", "N: one N-core big-machine point instead of the figure",
          [&](const std::string &v) {
              mega_cores = bench::parseCount("--mega", v);
          }},
         {"--occupancy=", "<path>: CSV of every point's monitor timelines",
          [&](const std::string &v) { occupancy_path = v; },
          /*output=*/true},
         {"--no-monitors", "run the points without monitors",
          [&](const std::string &) { monitors = false; }}});
    // The CSV dumps each point's hub, which only a point simulated in
    // this run fills: a reused point's hub stays empty, and --mega runs
    // its one point without monitors.
    if (!occupancy_path.empty()) {
        if (!monitors) {
            PGCN_THROW(ConfigError, "--occupancy= needs the monitors that "
                                    "--no-monitors turns off");
        }
        if (args.resume) {
            PGCN_THROW(ConfigError, "--occupancy= needs a fresh run: "
                                    "points reused by --resume have no "
                                    "timelines");
        }
        if (mega_cores) {
            PGCN_THROW(ConfigError, "--occupancy= does not apply to "
                                    "--mega=, which runs without "
                                    "monitors");
        }
    }
    bench::SweepDriver driver(args);
    const auto xeon_cfg = xeon::XeonConfig::platinum8380();

    if (mega_cores) {
        // One fig8-style point at full-machine scale. The graph is the
        // scale-14 RMAT proxy every big-machine measurement in
        // EXPERIMENTS.md uses, so numbers stay comparable across runs.
        // Monitors stay off — per-core timelines at 16K cores dwarf
        // the simulation itself.
        const graph::Csr big = graph::normalizedAdjacency(
            graph::generateRmat(14, 1u << 18, graph::rmatSkewed(), 99));
        std::cout << "mega proxy: |V|=" << big.numVertices()
                  << " |E|=" << big.numEdges() << " cores=" << *mega_cores
                  << "\n\n";
        driver.add(
            "mega/cores=" + std::to_string(*mega_cores),
            [&driver, &big, cores = *mega_cores](
                const parallel::SweepContext &ctx) {
                piuma::PiumaConfig pcfg;
                pcfg.numCores = cores;
                const auto sim =
                    simulateSpmm(big, 16, pcfg, SpmmAlgorithm::Dma,
                                 ctx.session, ctx.controls);
                driver.throughput(ctx).add(sim);
                return JsonlCheckpoint::Values{
                    {"gflops", sim.gflops},
                    {"makespan_ns", sim.makespanNs},
                    {"sim_events", static_cast<double>(sim.simEvents)},
                    {"cp_events",
                     static_cast<double>(sim.criticalPathEvents)},
                };
            });
        driver.run();
        driver.finish();
        return 0;
    }

    // ---- Left: bandwidth comparison (analytical, no sweep points).
    Table left("Fig 8 (left): system bandwidth vs cores (GB/s)",
               {"cores", "xeon", "piuma"});
    for (unsigned cores : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 80u, 120u,
                           160u}) {
        piuma::PiumaConfig pcfg;
        pcfg.numCores = cores;
        left.row()
            .cell(static_cast<uint64_t>(cores))
            .cell(xeon::streamBandwidth(xeon_cfg, cores), 1)
            .cell(pcfg.aggregateBandwidth(), 1);
    }
    left.print(std::cout);

    const auto &products = graph::datasetByName("products");
    const auto proxy = graph::buildProxy(products, 1u << 18);
    std::cout << "products proxy: |V|=" << proxy.adjacency.numVertices()
              << " |E|=" << proxy.adjacency.numEdges()
              << " (scale factor " << proxy.scaleFactor << ")\n\n";

    // ---- Enqueue the DES points for the middle and right panels.
    // One MonitorHub per point, preallocated so worker threads write
    // disjoint hubs; the occupancy CSV is then dumped in submission
    // order on the calling thread.
    constexpr unsigned kDim = 256;
    const std::vector<unsigned> scaling_cores{1u, 2u, 4u, 8u, 16u, 32u};
    const std::vector<unsigned> right_dims{8u, 64u, 256u};
    std::vector<sim::MonitorHub> hubs(scaling_cores.size() +
                                      right_dims.size());

    std::vector<size_t> middle_idx;
    for (size_t i = 0; i < scaling_cores.size(); ++i) {
        const unsigned cores = scaling_cores[i];
        sim::MonitorHub *hub = monitors ? &hubs[i] : nullptr;
        middle_idx.push_back(driver.add(
            "middle/cores=" + std::to_string(cores),
            [&driver, &proxy, cores,
             hub](const parallel::SweepContext &ctx) {
                piuma::PiumaConfig pcfg;
                pcfg.numCores = cores;
                sim::SimControls controls = *ctx.controls;
                controls.monitor = hub;
                const auto sim =
                    simulateSpmm(proxy.adjacency, kDim, pcfg,
                                 SpmmAlgorithm::Dma, ctx.session,
                                 &controls);
                driver.throughput(ctx).add(sim);
                return JsonlCheckpoint::Values{
                    {"gflops", sim.gflops},
                    {"makespan_ns", sim.makespanNs},
                    {"issue_util", sim.issueUtilization},
                    {"dma_util", sim.dmaUtilization},
                    {"mem_util", sim.maxMemUtilization},
                    {"net_util", sim.netUtilization},
                    {"stall_mem_ns", sim.stallMemoryNs},
                    {"stall_net_ns", sim.stallNetworkNs},
                    {"cp_events",
                     static_cast<double>(sim.criticalPathEvents)},
                    {"cp_parallelism", sim.criticalPathParallelism},
                    {"latency_hiding", sim.latencyHidingEffectiveness},
                    {"exposed_stall_ns", sim.exposedStallNs},
                };
            }));
    }

    std::vector<size_t> right_idx;
    for (size_t i = 0; i < right_dims.size(); ++i) {
        const unsigned k = right_dims[i];
        sim::MonitorHub *hub =
            monitors ? &hubs[scaling_cores.size() + i] : nullptr;
        right_idx.push_back(driver.add(
            "right/k=" + std::to_string(k),
            [&driver, &proxy, k, hub](const parallel::SweepContext &ctx) {
                piuma::PiumaConfig pcfg;
                pcfg.numCores = 16;
                sim::SimControls controls = *ctx.controls;
                controls.monitor = hub;
                const auto sim =
                    simulateSpmm(proxy.adjacency, k, pcfg,
                                 SpmmAlgorithm::Dma, ctx.session,
                                 &controls);
                driver.throughput(ctx).add(sim);
                return JsonlCheckpoint::Values{
                    {"bytes_read", sim.bytesRead},
                    {"dma_queue_stall_ns", sim.dmaQueueStallNs},
                    {"makespan_ns", sim.makespanNs},
                    {"nnz_reads", static_cast<double>(sim.nnzReads)},
                    {"nnz_stall_ns", sim.nnzStallNs},
                    {"stall_mem_ns", sim.stallMemoryNs},
                    {"stall_net_ns", sim.stallNetworkNs},
                };
            }));
    }

    driver.run();

    // ---- Middle: SpMM strong scaling on products, K=256, with the
    // per-core-count observability columns: occupancy, stall
    // attribution, latency hiding, critical-path parallelism, and the
    // scaling bound the run diagnosed.
    Table middle("Fig 8 (middle): SpMM strong scaling on products, "
                 "K=256 (normalised to 1-core PIUMA)",
                 {"cores", "piuma (sim)", "xeon (model)", "occupancy",
                  "mem stall/thr us", "net stall/thr us", "lat.hide",
                  "cp ||ism", "bound"});
    double piuma_base = 0.0;
    const model::SpmmWorkload full{products.numVertices,
                                   products.numEdges, kDim};
    for (size_t i = 0; i < scaling_cores.size(); ++i) {
        const unsigned cores = scaling_cores[i];
        const auto *point = driver.result(middle_idx[i]);
        if (!point)
            continue;
        // Old-checkpoint resumes may lack the observability metrics;
        // degrade those cells instead of aborting the table.
        const auto get = [point](const char *name, double fallback) {
            const auto it = point->find(name);
            return it != point->end() ? it->second : fallback;
        };
        const double gflops = point->at("gflops");
        if (cores == 1)
            piuma_base = gflops;
        // Xeon at the same thread count, full published scale; convert
        // to GFLOP/s with the full-scale FLOP count.
        const double xeon_ns =
            xeon::spmmTimeNs(xeon_cfg, full, cores, true);
        const double xeon_gflops =
            2.0 * static_cast<double>(products.numEdges) * kDim /
            xeon_ns;

        piuma::PiumaConfig pcfg;
        pcfg.numCores = cores;
        const double threads = pcfg.totalThreads();
        piuma::SpmmRunStats bound_stats{};
        bound_stats.criticalPathParallelism =
            get("cp_parallelism", 0.0);
        bound_stats.maxMemUtilization = get("mem_util", 0.0);
        bound_stats.netUtilization = get("net_util", 0.0);
        bound_stats.issueUtilization = get("issue_util", 0.0);
        bound_stats.dmaUtilization = get("dma_util", 0.0);
        const double hiding = get("latency_hiding", -1.0);

        auto &row = middle.row()
            .cell(static_cast<uint64_t>(cores))
            .cell(gflops / piuma_base, 2)
            .cell(xeon_gflops / piuma_base, 2)
            .cell(get("issue_util", 0.0), 3)
            .cell(get("stall_mem_ns", 0.0) / threads / 1e3, 2)
            .cell(get("stall_net_ns", 0.0) / threads / 1e3, 2);
        if (hiding >= 0.0)
            row.cell(hiding, 3);
        else
            row.cell("-");
        row.cell(get("cp_parallelism", 0.0), 1)
            .cell(piuma::scalingBoundName(bound_stats, pcfg.totalThreads()));
    }
    middle.print(std::cout);

    // ---- Right: 16-core PIUMA breakdown across K.
    Table right("Fig 8 (right): 16-core PIUMA DMA SpMM traffic & stall "
                "breakdown",
                {"K", "%read bytes NNZ", "%read bytes feature",
                 "nnz stall/thr us", "queue stall/thr us",
                 "model fraction"});
    for (size_t i = 0; i < right_dims.size(); ++i) {
        const unsigned k = right_dims[i];
        const auto *point = driver.result(right_idx[i]);
        if (!point)
            continue;
        piuma::PiumaConfig pcfg;
        pcfg.numCores = 16;
        const double nnz_bytes = point->at("nnz_reads") * 64.0;
        const double bytes_read = point->at("bytes_read");
        const double bw = pcfg.aggregateBandwidth();
        const auto est = model::estimateSpmm(
            model::SpmmWorkload{proxy.adjacency.numVertices(),
                                proxy.adjacency.numEdges(), k},
            bw, bw);
        const double threads = pcfg.totalThreads();
        right.row()
            .cell(static_cast<uint64_t>(k))
            .cell(100.0 * nnz_bytes / bytes_read, 1)
            .cell(100.0 * (1.0 - nnz_bytes / bytes_read), 1)
            .cell(point->at("nnz_stall_ns") / threads / 1e3, 2)
            .cell(point->at("dma_queue_stall_ns") / threads / 1e3, 2)
            .cell(est.timeNs / point->at("makespan_ns"), 2);
    }
    right.print(std::cout);

    // ---- Raw occupancy timelines (one row per non-empty bucket per
    // resource, prefixed with the owning sweep point).
    if (!occupancy_path.empty()) {
        std::ofstream occ(occupancy_path);
        occ << "point," << sim::MonitorHub::csvHeader() << '\n';
        const auto dump = [&](size_t hub_idx, size_t point_idx,
                              const std::string &key) {
            const auto *point = driver.result(point_idx);
            if (point == nullptr)
                return;
            const auto it = point->find("makespan_ns");
            if (it == point->end())
                return;
            hubs[hub_idx].writeCsv(occ, it->second, key + ",");
        };
        for (size_t i = 0; i < scaling_cores.size(); ++i)
            dump(i, middle_idx[i],
                 "middle/cores=" + std::to_string(scaling_cores[i]));
        for (size_t i = 0; i < right_dims.size(); ++i)
            dump(scaling_cores.size() + i, right_idx[i],
                 "right/k=" + std::to_string(right_dims[i]));
        std::cout << "(occupancy csv written to " << occupancy_path
                  << ")\n";
    }

    driver.finish();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runBenchMain([&] { return benchMain(argc, argv); });
}
