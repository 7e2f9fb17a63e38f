/**
 * @file
 * Degradation-envelope campaign: how gracefully does PIUMA SpMM
 * degrade as hard-fault rates rise, under different recovery policies?
 *
 * Sweeps fault rate x recovery policy on the fig8-style DMA SpMM
 * configuration over two proxy graphs (products, arxiv). Every point
 * injects dropped DRAM transactions, lost remote packets, failed DMA
 * descriptors and stuck cores at the same per-event rate, recovered by
 * the modeled timeout/retry/backoff protocol, and reports:
 *
 *  - goodput (demanded GB/s actually delivered over the makespan),
 *  - makespan inflation relative to the fault-free baseline of the
 *    same (graph, policy),
 *  - retry amplification (served bytes / demanded bytes — dropped
 *    attempts still burned bandwidth),
 *  - timeouts fired and modeled recovery time,
 *  - latency-hiding effectiveness, i.e. whether the MTP thread surplus
 *    still absorbs the retry latency ("hidden" retries) or the stalls
 *    are exposed on the critical path.
 *
 * The *knee* of the envelope — the smallest swept rate whose makespan
 * inflation exceeds 2x — is reported per (graph, policy). Below the
 * knee, latency hiding and spare bandwidth absorb retries; above it,
 * retry amplification compounds with queueing and the run falls off
 * the envelope.
 *
 * Conservation is checked at every point: served == demanded + retried
 * bytes (the retry-conservation invariant the test suite soaks).
 *
 * Flags beyond the shared bench set (see bench_util.hpp):
 *   --small   one small graph, three rates, one policy — the CI chaos
 *             smoke configuration.
 *   --poison  add one poisoned point (drop rate 1.0, tiny retry
 *             budget) whose unrecoverable SimFaultError exercises the
 *             quarantine path: the sweep survives, the point lands in
 *             the checkpoint as quarantined, and --resume never
 *             re-runs it.
 *   --no-monitors  run without the per-point sim::MonitorHub, so the
 *             lat.hide column reads "-" (A/B runs, overhead checks).
 *             A hub shards with the run, so either way --domains
 *             keeps its plan.
 *
 * Determinism: each point's injector is seeded base + pointIndex, so
 * a fixed (seed, config) is bit-reproducible across runs and --jobs
 * widths; two invocations with identical seeds produce byte-identical
 * checkpoint and sweep JSON (the CI smoke asserts this).
 */
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "piuma/spmm_programs.hpp"
#include "sim/monitor.hpp"

using namespace pgcn;
using piuma::SpmmAlgorithm;

namespace {

/** One recovery policy under test. */
struct Policy
{
    const char *name;
    double timeoutNs;
    double backoffNs;
    unsigned maxRetries;
};

/** One swept fault rate, with a stable key spelling. */
struct Rate
{
    const char *label;
    double value;
};

int
benchMain(int argc, char **argv)
{
    bool small = false;
    bool poison = false;
    bool monitors = true;
    const bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv,
        {{"--small", "one small graph, three rates, one policy",
          [&](const std::string &) { small = true; }},
         {"--poison", "add one poisoned point, quarantined when it fails",
          [&](const std::string &) { poison = true; }},
         {"--no-monitors", "run the points without monitors",
          [&](const std::string &) { monitors = false; }}});
    bench::SweepDriver driver(args);

    // Base fault config: --faults= may add jitters or override the
    // seed; the campaign owns the drop rates and policy knobs.
    const sim::FaultConfig base =
        args.faults ? *args.faults : sim::FaultConfig{};

    struct GraphCase
    {
        std::string name;
        graph::Csr csr;
    };
    std::vector<GraphCase> graphs;
    const unsigned cores = small ? 4 : 16;
    const unsigned kDim = small ? 32 : 64;
    if (small) {
        const auto proxy =
            graph::buildProxy(graph::datasetByName("arxiv"), 1u << 15);
        graphs.push_back({"arxiv", proxy.adjacency});
    } else {
        const auto products =
            graph::buildProxy(graph::datasetByName("products"), 1u << 18);
        const auto arxiv =
            graph::buildProxy(graph::datasetByName("arxiv"), 1u << 16);
        graphs.push_back({"products", products.adjacency});
        graphs.push_back({"arxiv", arxiv.adjacency});
    }
    // Rates stop where retry exhaustion becomes near-certain: a
    // combined per-attempt drop probability p survives a budget of R
    // re-issues only while p^(R+1) x #requests << 1, so the swept top
    // rate (0.15 -> remote p ~ 0.28) needs the deep budgets below.
    // The poisoned point (--poison) covers the unrecoverable regime.
    std::vector<Rate> rates;
    if (small) {
        rates = {{"0", 0.0}, {"1e-2", 1e-2}, {"1e-1", 0.1}};
    } else {
        rates = {{"0", 0.0},     {"1e-4", 1e-4}, {"1e-3", 1e-3},
                 {"1e-2", 1e-2}, {"5e-2", 0.05}, {"1.5e-1", 0.15}};
    }
    // Same retry budget, very different per-drop cost: "eager" detects
    // drops fast (cheap retries, shallow envelope), "patient" models a
    // sluggish watchdog whose long timeouts stop being absorbable by
    // latency hiding — that is where the 2x knee comes from.
    std::vector<Policy> policies;
    if (small)
        policies = {{"eager", 300.0, 50.0, 12}};
    else
        policies = {{"eager", 300.0, 50.0, 12},
                    {"patient", 5000.0, 1000.0, 12}};

    for (const auto &g : graphs) {
        std::cout << g.name << " proxy: |V|=" << g.csr.numVertices()
                  << " |E|=" << g.csr.numEdges() << "\n";
    }
    std::cout << "config: " << cores << " cores, K=" << kDim
              << ", DMA SpMM\n\n";

    // One MonitorHub per point (worker threads write disjoint hubs).
    const size_t n_points =
        graphs.size() * policies.size() * rates.size();
    std::vector<sim::MonitorHub> hubs(n_points);

    struct PointRef
    {
        size_t graph, policy, rate; ///< indices into the sweep axes
        size_t index;               ///< submission index
    };
    std::vector<PointRef> refs;
    size_t hub_i = 0;
    for (size_t gi = 0; gi < graphs.size(); ++gi) {
        for (size_t pi = 0; pi < policies.size(); ++pi) {
            for (size_t ri = 0; ri < rates.size(); ++ri) {
                const Policy &pol = policies[pi];
                const Rate &rate = rates[ri];
                const graph::Csr &csr = graphs[gi].csr;
                sim::MonitorHub *hub =
                    monitors ? &hubs[hub_i++] : nullptr;
                const std::string key = graphs[gi].name + "/" +
                                        pol.name +
                                        "/rate=" + rate.label;
                const size_t idx = driver.add(
                    key,
                    [&driver, &csr, base, pol, rate, cores, kDim, hub,
                     key](const parallel::SweepContext &ctx) {
                        piuma::PiumaConfig pcfg;
                        pcfg.numCores = cores;
                        // The campaign owns the drop/recovery knobs;
                        // seeding by submission index keeps the point
                        // bit-reproducible across --jobs widths.
                        sim::FaultConfig fc = base;
                        fc.seed = base.seed +
                                  static_cast<uint64_t>(ctx.pointIndex);
                        fc.dramDropRate = rate.value;
                        fc.netDropRate = rate.value;
                        fc.dmaDropRate = rate.value;
                        fc.stuckCoreRate = rate.value;
                        fc.timeoutNs = pol.timeoutNs;
                        fc.backoffNs = pol.backoffNs;
                        fc.maxRetries = pol.maxRetries;
                        sim::FaultInjector inj(fc);
                        sim::SimControls controls = *ctx.controls;
                        controls.faults = &inj;
                        controls.monitor = hub;
                        const auto sim = simulateSpmm(
                            csr, kDim, pcfg, SpmmAlgorithm::Dma,
                            ctx.session, &controls);
                        driver.throughput(ctx).add(sim);
                        // Retry-conservation invariant, checked hot at
                        // every point of every campaign run.
                        const double served = sim.bytesServed;
                        const double expect =
                            sim.goodputBytes + sim.retriedBytes;
                        if (std::abs(served - expect) >
                            1e-6 * std::max(served, 1.0)) {
                            PGCN_THROW(
                                SimError,
                                "conservation violated at "
                                    << key << ": served " << served
                                    << " != demanded+retried "
                                    << expect);
                        }
                        return JsonlCheckpoint::Values{
                            {"makespan_ns", sim.makespanNs},
                            {"goodput_bytes", sim.goodputBytes},
                            {"retried_bytes", sim.retriedBytes},
                            {"bytes_served", sim.bytesServed},
                            {"retries",
                             static_cast<double>(sim.retries)},
                            {"timeouts",
                             static_cast<double>(sim.timeoutsFired)},
                            {"stuck_resets",
                             static_cast<double>(sim.stuckResets)},
                            {"recovery_ns", sim.recoveryNs},
                            {"latency_hiding",
                             sim.latencyHidingEffectiveness},
                            {"exposed_stall_ns", sim.exposedStallNs},
                        };
                    });
                refs.push_back(PointRef{gi, pi, ri, idx});
            }
        }
    }

    // Optional poisoned point: drop rate 1.0 with a tiny retry budget
    // is unrecoverable by construction — SimFaultError, quarantine.
    size_t poison_idx = 0;
    if (poison) {
        const graph::Csr &csr = graphs.front().csr;
        poison_idx = driver.add(
            "poison/rate=1", [&driver, &csr, base, cores,
                              kDim](const parallel::SweepContext &ctx) {
                piuma::PiumaConfig pcfg;
                pcfg.numCores = cores;
                sim::FaultConfig fc = base;
                fc.seed =
                    base.seed + static_cast<uint64_t>(ctx.pointIndex);
                fc.dramDropRate = 1.0;
                fc.maxRetries = 2;
                sim::FaultInjector inj(fc);
                sim::SimControls controls = *ctx.controls;
                controls.faults = &inj;
                const auto sim =
                    simulateSpmm(csr, kDim, pcfg, SpmmAlgorithm::Dma,
                                 ctx.session, &controls);
                driver.throughput(ctx).add(sim);
                return JsonlCheckpoint::Values{
                    {"makespan_ns", sim.makespanNs}};
            });
    }

    driver.run();

    // ---- Render the envelope, one table per graph.
    for (size_t gi = 0; gi < graphs.size(); ++gi) {
        Table table("Degradation envelope: " + graphs[gi].name +
                        " proxy, DMA SpMM, " + std::to_string(cores) +
                        " cores, K=" + std::to_string(kDim),
                    {"policy", "rate", "goodput GB/s", "inflation",
                     "retry amp", "timeouts", "recovery ms", "lat.hide",
                     "exposed ms"});
        for (size_t pi = 0; pi < policies.size(); ++pi) {
            double base_makespan = 0.0;
            double knee = -1.0;
            for (const PointRef &ref : refs) {
                if (ref.graph != gi || ref.policy != pi)
                    continue;
                const auto *point = driver.result(ref.index);
                if (point == nullptr)
                    continue;
                const double makespan = point->at("makespan_ns");
                const double goodput = point->at("goodput_bytes");
                if (rates[ref.rate].value == 0.0)
                    base_makespan = makespan;
                const double inflation =
                    base_makespan > 0.0 ? makespan / base_makespan
                                        : 0.0;
                if (knee < 0.0 && rates[ref.rate].value > 0.0 &&
                    inflation > 2.0)
                    knee = rates[ref.rate].value;
                const double amp =
                    goodput > 0.0 ? point->at("bytes_served") / goodput
                                  : 0.0;
                const double hiding = point->at("latency_hiding");
                auto &row =
                    table.row()
                        .cell(policies[pi].name)
                        .cell(rates[ref.rate].label)
                        .cell(goodput / makespan, 2)
                        .cell(inflation, 2)
                        .cell(amp, 3)
                        .cell(static_cast<uint64_t>(
                            point->at("timeouts")))
                        .cell(point->at("recovery_ns") / 1e6, 2);
                if (hiding >= 0.0)
                    row.cell(hiding, 3);
                else
                    row.cell("-");
                row.cell(point->at("exposed_stall_ns") / 1e6, 2);
            }
            if (knee > 0.0)
                std::cout << "knee(" << graphs[gi].name << ", "
                          << policies[pi].name << "): rate " << knee
                          << " inflates makespan past 2x\n";
            else
                std::cout << "knee(" << graphs[gi].name << ", "
                          << policies[pi].name
                          << "): not reached in swept range\n";
        }
        std::cout << "\n";
        table.print(std::cout);
    }

    if (poison) {
        if (driver.result(poison_idx) == nullptr)
            std::cout << "(poison point failed as designed; "
                         "quarantined in the checkpoint)\n";
        else
            std::cerr << "poison point unexpectedly succeeded\n";
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
