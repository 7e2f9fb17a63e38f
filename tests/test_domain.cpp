/**
 * @file
 * Differential determinism harness for event domains
 * (sim::DomainSet). The serial engine (one domain) is the oracle.
 * Four guarantees are pinned here:
 *
 *  1. Bit-identity: threaded `--domains N` produces byte/bit-identical
 *     results to the serial engine — on the determinism goldens (full
 *     SpmmRunStats field equality plus the hardcoded golden values at
 *     N > 1), clean and faulted, and on a fig8-style fault soak whose
 *     checkpoint JSONL files are compared byte for byte across N in
 *     {1, 2, 4, 8}. The domain plan and the whole-run event budget
 *     are pinned alongside.
 *
 *  2. The conservative clock protocol (Parallel mode): randomized
 *     micro-topologies with cross-domain messages at the lookahead
 *     boundary execute every event at exactly its timestamp, in
 *     non-decreasing order per domain, for adversarial lookahead
 *     values including 1 ns; an idle neighbor never deadlocks the set
 *     (null-message idle-advance), and SimDeadlockError still names
 *     blocked agents across domains.
 *
 *  3. The carried-key tiebreak: cross-domain messages at equal
 *     timestamps dispatch in the order of the (band, entity, stamp)
 *     keys they carry — never by source domain or by which worker
 *     posted first — and after the destination's ordinary events.
 *
 *  4. The clock plumbing itself: Engine::runUntil horizon strictness.
 *     (A memory-response wake is a plain Engine::schedule, pinned by
 *     the goldens and the differentials above.)
 *
 * Note on lookahead: the model runs at its own lookahead bound, so
 * the adversarial lookahead sweep lives in the property tests.
 * lookaheadNs = 1.0 *is* the 1 ns adversarial case.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <thread>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/sweep_runner.hpp"
#include "piuma/dense_programs.hpp"
#include "piuma/gcn_sim.hpp"
#include "piuma/memory.hpp"
#include "piuma/spmm_programs.hpp"
#include "sim/domain.hpp"
#include "sim/monitor.hpp"
#include "sim/queue.hpp"
#include "telemetry/session.hpp"
#include "test_fixtures.hpp"
#include "test_paths.hpp"

namespace {

using namespace pgcn;
using namespace pgcn::piuma;
using namespace pgcn::sim;
using pgcn_test::goldenGraph;
using pgcn_test::slurp;
using pgcn_test::twoCores;

/** The mode that runs @p domains domains: serial at 1, Auto at 0. */
DomainMode
modeFor(unsigned domains)
{
    if (domains == 0)
        return DomainMode::Auto;
    return domains > 1 ? DomainMode::Parallel : DomainMode::Sequenced;
}

/** Run one SpMM on @p domains domains (optionally faulted or observed). */
SpmmRunStats
runSharded(const graph::Csr &csr, unsigned k, const PiumaConfig &cfg,
           SpmmAlgorithm alg, unsigned domains,
           const FaultConfig *fault_cfg = nullptr,
           telemetry::Session *session = nullptr,
           MonitorHub *hub = nullptr)
{
    std::optional<FaultInjector> faults;
    SimControls controls;
    controls.domains = domains;
    controls.domainMode = modeFor(domains);
    controls.monitor = hub;
    if (fault_cfg != nullptr) {
        faults.emplace(*fault_cfg);
        controls.faults = &*faults;
    }
    return simulateSpmm(csr, k, cfg, alg, session, &controls);
}

/**
 * Every deterministic SpmmRunStats field must match bit for bit
 * (EXPECT_EQ on double is exact equality, not a tolerance). Only the
 * host-measured fields (wallSeconds, eventsPerSec) are exempt —
 * plus, when @p same_count is false, peakEventQueueDepth: threaded
 * domains peak per domain, so their peak is a host-scheduling
 * artifact, not a simulated result (everything else, including the
 * event count and critical path, must still agree).
 */
void
expectStatsIdentical(const SpmmRunStats &a, const SpmmRunStats &b,
                     bool same_count = true)
{
    EXPECT_EQ(a.makespanNs, b.makespanNs);
    EXPECT_EQ(a.flop, b.flop);
    EXPECT_EQ(a.gflops, b.gflops);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
    EXPECT_EQ(a.bytesServed, b.bytesServed);
    EXPECT_EQ(a.memUtilization, b.memUtilization);
    EXPECT_EQ(a.maxMemUtilization, b.maxMemUtilization);
    EXPECT_EQ(a.netUtilization, b.netUtilization);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.memRemoteAccesses, b.memRemoteAccesses);
    EXPECT_EQ(a.remoteAccessFraction, b.remoteAccessFraction);
    EXPECT_EQ(a.maxSliceBytesFraction, b.maxSliceBytesFraction);
    EXPECT_EQ(a.nnzStallNs, b.nnzStallNs);
    EXPECT_EQ(a.rowOffsetStallNs, b.rowOffsetStallNs);
    EXPECT_EQ(a.featureStallNs, b.featureStallNs);
    EXPECT_EQ(a.dmaQueueStallNs, b.dmaQueueStallNs);
    EXPECT_EQ(a.issueNs, b.issueNs);
    EXPECT_EQ(a.stallMemoryNs, b.stallMemoryNs);
    EXPECT_EQ(a.stallNetworkNs, b.stallNetworkNs);
    EXPECT_EQ(a.issueUtilization, b.issueUtilization);
    EXPECT_EQ(a.dmaUtilization, b.dmaUtilization);
    EXPECT_EQ(a.criticalPathEvents, b.criticalPathEvents);
    EXPECT_EQ(a.criticalPathParallelism, b.criticalPathParallelism);
    EXPECT_EQ(a.latencyHidingEffectiveness,
              b.latencyHidingEffectiveness);
    EXPECT_EQ(a.exposedStallNs, b.exposedStallNs);
    EXPECT_EQ(a.avgNnzLatencyNs, b.avgNnzLatencyNs);
    EXPECT_EQ(a.nnzReads, b.nnzReads);
    EXPECT_EQ(a.dmaDescriptors, b.dmaDescriptors);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.timeoutsFired, b.timeoutsFired);
    EXPECT_EQ(a.stuckResets, b.stuckResets);
    EXPECT_EQ(a.goodputBytes, b.goodputBytes);
    EXPECT_EQ(a.retriedBytes, b.retriedBytes);
    EXPECT_EQ(a.recoveryNs, b.recoveryNs);
    if (same_count) {
        EXPECT_EQ(a.peakEventQueueDepth, b.peakEventQueueDepth);
    }
}

// ---------------------------------------------------------------------------
// 1. Bit-identity with the serial engine on the determinism goldens

// The golden DMA SpMM constants from test_determinism.cpp must
// reproduce on threaded domains (four requested, clamped to the two
// cores): same graph, same K, same bits.
TEST(DomainModeParallel, GoldenDmaSpmmAtFourDomains)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    const SpmmRunStats s =
        runSharded(csr, 16, twoCores(), SpmmAlgorithm::Dma, 4);

    EXPECT_DOUBLE_EQ(s.makespanNs, 10712.857142857198);
    EXPECT_EQ(s.simEvents, 22697u);
    EXPECT_EQ(s.dmaDescriptors, 3142u);
    EXPECT_DOUBLE_EQ(s.nnzStallNs, 444165.11607144284);
    EXPECT_DOUBLE_EQ(s.rowOffsetStallNs, 323628.40178571834);
    EXPECT_DOUBLE_EQ(s.featureStallNs, 0.0);
    EXPECT_DOUBLE_EQ(s.dmaQueueStallNs, 231330.3839286021);
    EXPECT_DOUBLE_EQ(s.issueNs, 0.0);
    EXPECT_DOUBLE_EQ(s.bytesRead, 274048.0);
    EXPECT_DOUBLE_EQ(s.bytesWritten, 23936.0);
}

// Telemetry counters — what --metrics= writes —
// must agree name for name and bit for bit whatever domain count is
// requested, and an attached session must not keep the run on one
// engine.
TEST(DomainSerial, TelemetryCountersIdentical)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    const PiumaConfig cfg = twoCores();
    using Counters = std::vector<std::pair<std::string, double>>;
    const auto collect = [&](unsigned domains) {
        telemetry::Session session;
        const SpmmRunStats stats = runSharded(
            csr, 16, cfg, SpmmAlgorithm::Dma, domains, nullptr, &session);
        EXPECT_EQ(stats.domains, std::min(domains, cfg.numCores));
        Counters out;
        session.registry().forEachCounter(
            [&out](const std::string &name,
                   const telemetry::Counter &c) {
                out.emplace_back(name, c.value());
            });
        return out;
    };
    const Counters serial = collect(1);
    EXPECT_FALSE(serial.empty());
    const Counters sharded = collect(4);
    ASSERT_EQ(serial.size(), sharded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].first, sharded[i].first);
        EXPECT_EQ(serial[i].second, sharded[i].second)
            << "counter " << serial[i].first;
    }
}

TEST(DomainSerial, ZeroDomainsClampsToOne)
{
    DomainSet set(0u);
    EXPECT_EQ(set.domains(), 1u);
    EXPECT_EQ(set.run(), 0.0);
}

// ---------------------------------------------------------------------------
// 2. Fig8-style fault soak: checkpoint JSONL bytes across domain counts

/** One soak point: a small fig8-ish configuration. */
struct SoakConfig
{
    unsigned cores;
    unsigned k;
    SpmmAlgorithm alg;
    double latScale;
};

const std::vector<SoakConfig> &
soakConfigs()
{
    static const std::vector<SoakConfig> configs = {
        {1, 8, SpmmAlgorithm::Dma, 1.0},
        {1, 16, SpmmAlgorithm::Dma, 1.0},
        {2, 8, SpmmAlgorithm::Dma, 1.0},
        {2, 16, SpmmAlgorithm::Dma, 1.0},
        {2, 8, SpmmAlgorithm::LoopUnrolled, 1.0},
        {4, 8, SpmmAlgorithm::Dma, 1.0},
        {2, 16, SpmmAlgorithm::Dma, 4.0},
    };
    return configs;
}

void
addSoakPoints(parallel::SweepRunner &runner, const graph::Csr &csr)
{
    for (const SoakConfig &sc : soakConfigs()) {
        const std::string key =
            "soak/cores=" + std::to_string(sc.cores) +
            "/k=" + std::to_string(sc.k) +
            "/alg=" + spmmAlgorithmName(sc.alg) +
            "/lat=" + std::to_string(static_cast<unsigned>(sc.latScale));
        runner.add(key, [&csr, sc](const parallel::SweepContext &ctx) {
            PiumaConfig cfg;
            cfg.numCores = sc.cores;
            cfg.dramLatencyScale = sc.latScale;
            const SpmmRunStats s = simulateSpmm(
                csr, sc.k, cfg, sc.alg, ctx.session, ctx.controls);
            return JsonlCheckpoint::Values{
                {"makespan_ns", s.makespanNs},
                {"sim_events", static_cast<double>(s.simEvents)},
                {"nnz_stall_ns", s.nnzStallNs},
                {"row_offset_stall_ns", s.rowOffsetStallNs},
                {"feature_stall_ns", s.featureStallNs},
                {"dma_queue_stall_ns", s.dmaQueueStallNs},
                {"bytes_served", s.bytesServed},
                {"retries", static_cast<double>(s.retries)},
                {"recovery_ns", s.recoveryNs},
                {"critical_path_events",
                 static_cast<double>(s.criticalPathEvents)},
            };
        });
    }
}

// 7 configs x {faults off, faults on} x domains {1, 2, 4, 8} = 56
// simulations. For each fault mode the four checkpoint JSONL files
// must be byte-identical — the same property the CI fig8 smoke pins
// with cmp, here under fault injection too.
TEST(DomainSoak, CheckpointBytesInvariantAcrossDomainCounts)
{
    const graph::Csr csr = goldenGraph(7, 1200, 3);
    for (const bool faulted : {false, true}) {
        std::vector<std::string> files;
        for (const unsigned d : {1u, 2u, 4u, 8u}) {
            const std::string path = pgcn_test::testPath(
                std::string(faulted ? "soak_faulted_d" : "soak_clean_d") +
                std::to_string(d) + ".jsonl");
            parallel::SweepOptions options;
            options.jobs = 1;
            options.domains = d;
            if (faulted) {
                FaultConfig fc;
                fc.seed = 7;
                fc.dramLatencyJitter = 0.15;
                fc.dramDropRate = 0.01;
                fc.dmaDropRate = 0.01;
                options.faults = fc;
            }
            parallel::SweepRunner runner(options);
            addSoakPoints(runner, csr);
            JsonlCheckpoint ckpt(path, /*resume=*/false);
            const parallel::SweepRunner::Outcome out = runner.run(ckpt);
            EXPECT_EQ(out.computed, soakConfigs().size());
            EXPECT_TRUE(out.errors.empty());
            files.push_back(path);
        }
        const std::string serial_bytes = slurp(files[0]);
        EXPECT_FALSE(serial_bytes.empty());
        for (size_t i = 1; i < files.size(); ++i) {
            SCOPED_TRACE(files[i]);
            EXPECT_EQ(serial_bytes, slurp(files[i]));
        }
    }
}

// --domains composes with --jobs: sharded points under a parallel
// sweep still reproduce the serial sweep's checkpoint bytes.
TEST(DomainSoak, ComposesWithParallelSweepJobs)
{
    const graph::Csr csr = goldenGraph(7, 1200, 3);
    const auto sweepBytes = [&](unsigned jobs, unsigned domains) {
        const std::string path = pgcn_test::testPath(
            "compose_j" + std::to_string(jobs) + "_d" +
            std::to_string(domains) + ".jsonl");
        parallel::SweepOptions options;
        options.jobs = jobs;
        options.domains = domains;
        parallel::SweepRunner runner(options);
        addSoakPoints(runner, csr);
        JsonlCheckpoint ckpt(path, /*resume=*/false);
        runner.run(ckpt);
        return slurp(path);
    };
    const std::string serial = sweepBytes(1, 1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, sweepBytes(4, 4));
}

// ---------------------------------------------------------------------------
// 2b. Parallel domain mode on the PIUMA model itself
//
// The latency-bearing memory response path makes every cross-domain
// event carry at least MemorySystem::modelLookaheadNs() of simulated
// latency, so the threaded Parallel mode is legal for the full model.
// These differentials are the proof obligation: Parallel must agree
// with the serial oracle on every deterministic stat, clean and
// under the full fault machinery, at every domain count. Two machine
// sizes: 8 cores, so 2, 4 and 8 domains all shard for real, and 2
// cores, where domains outnumber cores and those with no core bound
// to them must stay inert.

/** All-field differential: 2, 4 and 8 domains vs the serial engine. */
void
expectIdenticalAcrossDomainCounts(unsigned cores)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    PiumaConfig cfg;
    cfg.numCores = cores;
    for (const SpmmAlgorithm alg :
         {SpmmAlgorithm::Dma, SpmmAlgorithm::LoopUnrolled}) {
        const unsigned k = alg == SpmmAlgorithm::Dma ? 16u : 8u;
        const SpmmRunStats serial = runSharded(csr, k, cfg, alg, 1);
        for (const unsigned d : {2u, 4u, 8u}) {
            SCOPED_TRACE("alg=" + std::string(spmmAlgorithmName(alg)) +
                         " domains=" + std::to_string(d));
            expectStatsIdentical(serial, runSharded(csr, k, cfg, alg, d),
                                 /*same_count=*/false);
        }
    }
}

/**
 * The same differential with the full fault machinery live: jitters
 * perturbing every modeled latency plus hard drops exercising the
 * timeout/retry/backoff recovery protocol.
 */
void
expectIdenticalWithFaultsInjected(unsigned cores)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    PiumaConfig cfg;
    cfg.numCores = cores;
    FaultConfig fc;
    fc.seed = 17;
    fc.dramLatencyJitter = 0.2;
    fc.serviceRateJitter = 0.1;
    fc.networkLatencyJitter = 0.2;
    fc.dmaOverheadJitter = 0.1;
    fc.dramDropRate = 0.02;
    fc.dmaDropRate = 0.01;
    const SpmmRunStats serial =
        runSharded(csr, 16, cfg, SpmmAlgorithm::Dma, 1, &fc);
    EXPECT_GT(serial.retries, 0u); // the recovery protocol must fire
    for (const unsigned d : {2u, 4u, 8u}) {
        SCOPED_TRACE("domains=" + std::to_string(d));
        expectStatsIdentical(
            serial, runSharded(csr, 16, cfg, SpmmAlgorithm::Dma, d, &fc),
            /*same_count=*/false);
    }
}

TEST(DomainModeParallel, BitIdenticalToSequencedAcrossDomainCounts)
{
    expectIdenticalAcrossDomainCounts(8);
}

TEST(DomainModeParallel, BitIdenticalToSequencedWithFaultsInjected)
{
    expectIdenticalWithFaultsInjected(8);
}

// The 2-core inputs keep their historical names; modeFor() runs every
// multi-domain count Parallel here too.
TEST(DomainSequenced, BitIdenticalAcrossDomainCounts)
{
    expectIdenticalAcrossDomainCounts(2);
}

TEST(DomainSequenced, BitIdenticalWithFaultsInjected)
{
    expectIdenticalWithFaultsInjected(2);
}

// A MonitorHub shards with the run: each timeline is written from one
// domain and folds on its own spans, so a monitored run at 4 Parallel
// domains and on Auto equals the monitored serial run in its stats,
// its hub report and its CSV bytes, clean and with drops armed.
TEST(DomainModeParallel, MonitoredRunMatchesSerial)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    PiumaConfig cfg;
    cfg.numCores = 32; // four dies: auto shards whenever the host can
    FaultConfig drops;
    drops.seed = 17;
    drops.networkLatencyJitter = 0.1;
    drops.dramDropRate = 0.02;
    drops.dmaDropRate = 0.01;
    struct Observed
    {
        SpmmRunStats stats;
        std::vector<std::array<double, 7>> cores; ///< hub report rows
        std::string csv;
    };
    for (const SpmmAlgorithm alg :
         {SpmmAlgorithm::Dma, SpmmAlgorithm::LoopUnrolled}) {
        for (const FaultConfig *fc :
             std::initializer_list<const FaultConfig *>{nullptr, &drops}) {
            const auto observe = [&](unsigned domains) {
                MonitorHub hub;
                Observed o;
                o.stats = runSharded(csr, 16, cfg, alg, domains, fc,
                                     nullptr, &hub);
                for (const OccupancyReport::CoreReport &c :
                     hub.report(o.stats.makespanNs).cores)
                    o.cores.push_back({c.issueBusyNs, c.stallMemNs,
                                       c.stallNetNs, c.stallQueueNs,
                                       c.stallRecoveryNs, c.windowNs,
                                       c.coveredNs});
                std::ostringstream os;
                hub.writeCsv(os, o.stats.makespanNs, "");
                o.csv = os.str();
                return o;
            };
            const Observed serial = observe(1);
            EXPECT_FALSE(serial.csv.empty());
            EXPECT_EQ(serial.stats.retries > 0, fc != nullptr);
            for (const unsigned d : {4u, 0u}) {
                SCOPED_TRACE(std::string(spmmAlgorithmName(alg)) +
                             (fc != nullptr ? " faulted" : " clean") +
                             " domains=" + std::to_string(d));
                const Observed sharded = observe(d);
                if (d != 0 || MemorySystem::hostThreads() > 1) {
                    EXPECT_GT(sharded.stats.domains, 1u);
                }
                expectStatsIdentical(serial.stats, sharded.stats,
                                     /*same_count=*/false);
                EXPECT_EQ(sharded.cores, serial.cores);
                EXPECT_EQ(sharded.csv, serial.csv);
            }
        }
    }
}

// simulateGcn runs its SpMM layers on auto domains within the host
// plan's cap (gcnHostPlan). On a two-die machine each layer shards
// when the plan leaves it two threads, and must equal the serial
// simulateSpmm of the same layer, with or without a telemetry session.
TEST(DomainModeParallel, SimulateGcnLayersMatchSerialOnAutoDomains)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    PiumaConfig cfg;
    cfg.numCores = 16;
    const std::vector<GcnSimLayer> layers{{32, 16}, {16, 8}};
    const GcnSimResult gcn = simulateGcn(csr, layers, cfg);
    ASSERT_EQ(gcn.spmmLayers.size(), layers.size());
    const GcnHostPlan plan =
        gcnHostPlan(cfg, layers.size(), MemorySystem::hostThreads());
    for (size_t i = 0; i < layers.size(); ++i) {
        SCOPED_TRACE("layer " + std::to_string(i));
        const SpmmRunStats &s = gcn.spmmLayers[i];
        EXPECT_EQ(s.domains, plan.layerDomains);
        expectStatsIdentical(
            simulateSpmm(csr, static_cast<unsigned>(layers[i].kOut), cfg,
                         SpmmAlgorithm::Dma),
            s, /*same_count=*/false);
    }
    telemetry::Session session;
    const GcnSimResult traced =
        simulateGcn(csr, layers, cfg, SpmmAlgorithm::Dma, &session);
    ASSERT_EQ(traced.spmmLayers.size(), layers.size());
    for (size_t i = 0; i < layers.size(); ++i) {
        SCOPED_TRACE("traced layer " + std::to_string(i));
        EXPECT_EQ(traced.spmmLayers[i].domains, plan.layerDomains);
        expectStatsIdentical(gcn.spmmLayers[i], traced.spmmLayers[i],
                             /*same_count=*/false);
    }
}

// The host-thread budget: W = min(L, H) concurrent layers, each SpMM
// plan capped at max(1, H / W) threads, never more than H in all; one
// layer keeps the machine-wide auto plan.
TEST(GcnLayers, HostPlanStaysWithinTheHostThreads)
{
    for (const unsigned cores : {8u, 16u, 64u}) {
        PiumaConfig cfg;
        cfg.numCores = cores;
        for (const unsigned h : {1u, 2u, 3u, 4u, 8u}) {
            for (const size_t l : {size_t{1}, size_t{2}, size_t{3},
                                   size_t{5}}) {
                SCOPED_TRACE(std::to_string(cores) + " cores, H=" +
                             std::to_string(h) + ", L=" + std::to_string(l));
                const GcnHostPlan plan = gcnHostPlan(cfg, l, h);
                EXPECT_EQ(plan.workers, std::min<size_t>(l, h));
                EXPECT_GE(plan.layerDomains, 1u);
                EXPECT_LE(plan.workers * plan.layerDomains, h);
                if (l == 1) {
                    EXPECT_EQ(plan.layerDomains,
                              MemorySystem::autoDomainCount(cfg, h));
                }
            }
        }
    }
    PiumaConfig eight_dies;
    eight_dies.numCores = 64;
    EXPECT_EQ(gcnHostPlan(eight_dies, 1, 8).layerDomains, 8u);
    EXPECT_EQ(gcnHostPlan(eight_dies, 1, 3).layerDomains, 2u);
    EXPECT_EQ(gcnHostPlan(eight_dies, 3, 8).layerDomains, 2u);
    EXPECT_EQ(gcnHostPlan(eight_dies, 5, 8).layerDomains, 1u);
    // perfbench's shape: 3 layers of 16 cores on 4 threads are three
    // concurrent one-engine layers; 2 layers keep 2 domains each.
    PiumaConfig two_dies;
    two_dies.numCores = 16;
    EXPECT_EQ(gcnHostPlan(two_dies, 3, 4).workers, 3u);
    EXPECT_EQ(gcnHostPlan(two_dies, 3, 4).layerDomains, 1u);
    EXPECT_EQ(gcnHostPlan(two_dies, 2, 4).layerDomains, 2u);
}

void
expectDenseIdentical(const DenseRunStats &a, const DenseRunStats &b)
{
    EXPECT_EQ(a.makespanNs, b.makespanNs);
    EXPECT_EQ(a.flop, b.flop);
    EXPECT_EQ(a.gflops, b.gflops);
    EXPECT_EQ(a.memUtilization, b.memUtilization);
    EXPECT_EQ(a.issueUtilization, b.issueUtilization);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.timeoutsFired, b.timeoutsFired);
    EXPECT_EQ(a.stuckResets, b.stuckResets);
    EXPECT_EQ(a.goodputBytes, b.goodputBytes);
    EXPECT_EQ(a.recoveryNs, b.recoveryNs);
    EXPECT_EQ(a.peakEventQueueDepth, b.peakEventQueueDepth);
}

// Differential: the concurrent layers of a 3-layer simulateGcn equal
// the layer-by-layer simulateDenseMm/simulateSpmm calls on the serial
// engine, field for field, and the totals are the same layer-order
// sums bit for bit.
TEST(GcnLayers, ConcurrentLayersMatchSequentialCalls)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    PiumaConfig cfg;
    cfg.numCores = 16;
    const std::vector<GcnSimLayer> layers{{32, 16}, {16, 16}, {16, 4}};
    for (const SpmmAlgorithm alg :
         {SpmmAlgorithm::Dma, SpmmAlgorithm::LoopUnrolled}) {
        SCOPED_TRACE(spmmAlgorithmName(alg));
        const GcnSimResult gcn = simulateGcn(csr, layers, cfg, alg);
        ASSERT_EQ(gcn.denseLayers.size(), layers.size());
        ASSERT_EQ(gcn.spmmLayers.size(), layers.size());
        double dense_ns = 0.0, spmm_ns = 0.0;
        uint64_t events = 0;
        for (size_t l = 0; l < layers.size(); ++l) {
            SCOPED_TRACE("layer " + std::to_string(l));
            const DenseRunStats dense = simulateDenseMm(
                csr.numVertices(), layers[l].kIn, layers[l].kOut, cfg);
            const SpmmRunStats spmm = simulateSpmm(
                csr, static_cast<unsigned>(layers[l].kOut), cfg, alg);
            expectDenseIdentical(dense, gcn.denseLayers[l]);
            expectStatsIdentical(spmm, gcn.spmmLayers[l],
                                 /*same_count=*/false);
            dense_ns += dense.makespanNs;
            spmm_ns += spmm.makespanNs;
            events += dense.simEvents + spmm.simEvents;
        }
        EXPECT_EQ(gcn.denseNs, dense_ns);
        EXPECT_EQ(gcn.spmmNs, spmm_ns);
        EXPECT_EQ(gcn.totalNs, spmm_ns + dense_ns);
        EXPECT_EQ(gcn.simEvents, events);
        EXPECT_GT(gcn.wallSeconds, 0.0);
        EXPECT_EQ(gcn.eventsPerSec,
                  static_cast<double>(events) / gcn.wallSeconds);
    }
}

/** Threads of this process (Linux; 0 where /proc is unavailable). */
size_t
processThreads()
{
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/task", ec);
    if (ec)
        return 0;
    return static_cast<size_t>(
        std::distance(it, std::filesystem::directory_iterator{}));
}

/** The first error a layer-by-layer loop raises ("" if none). */
std::string
sequentialLoopError(const graph::Csr &csr,
                    const std::vector<GcnSimLayer> &layers,
                    const PiumaConfig &cfg)
{
    try {
        for (const GcnSimLayer &l : layers) {
            simulateDenseMm(csr.numVertices(), l.kIn, l.kOut, cfg);
            simulateSpmm(csr, static_cast<unsigned>(l.kOut), cfg,
                         SpmmAlgorithm::Dma);
        }
    } catch (const ShapeError &e) {
        return e.what();
    }
    return {};
}

// A failing middle layer raises what the layer-by-layer loop raises,
// after every worker has joined. In the second GCN the last layer
// fails at once (k_in = 0) while the middle one fails only after its
// dense update (a k_out of 2^32 truncates to a zero SpMM width): the
// lowest failing layer's error still wins.
TEST(GcnLayers, FailingMiddleLayerRaisesLikeTheSequentialLoop)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    PiumaConfig cfg;
    cfg.numCores = 2;
    const std::vector<std::vector<GcnSimLayer>> gcns{
        {{16, 8}, {0, 8}, {8, 4}},
        {{16, 8}, {8, uint64_t{1} << 32}, {0, 8}},
    };
    // A first concurrent call lets runtimes start their own helper
    // threads (ThreadSanitizer does) before the count is taken.
    simulateGcn(csr, {{16, 8}, {8, 4}}, cfg);
    const size_t threads_before = processThreads();
    for (const auto &layers : gcns) {
        const std::string expected = sequentialLoopError(csr, layers, cfg);
        ASSERT_FALSE(expected.empty());
        try {
            simulateGcn(csr, layers, cfg);
            ADD_FAILURE() << "a failing layer must raise";
        } catch (const ShapeError &e) {
            EXPECT_EQ(std::string(e.what()), expected);
        }
        EXPECT_EQ(processThreads(), threads_before);
    }
    EXPECT_NE(sequentialLoopError(csr, gcns[1], cfg).find("embedding"),
              std::string::npos);
}

// The event budget is a whole-run budget: threaded domains may
// dispatch no more events than the serial engine. Half the serial
// total must trip it at four domains, although no single domain
// dispatches that many.
TEST(DomainModeParallel, EventBudgetCountsEventsAcrossDomains)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    PiumaConfig cfg;
    cfg.numCores = 8;
    const SpmmRunStats serial =
        runSharded(csr, 16, cfg, SpmmAlgorithm::Dma, 1);
    SimControls controls;
    controls.domains = 4;
    controls.domainMode = DomainMode::Parallel;
    controls.limits.maxEvents = serial.simEvents / 2;
    EXPECT_THROW(simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma, nullptr,
                              &controls),
                 SimLimitError);
}

// Checkpoint JSONL bytes — what the CI fig8 smoke cmp's — must be
// identical between a serial and a four-domain parallel sweep, faults
// off and on.
TEST(DomainModeParallel, CheckpointBytesMatchSequencedSweep)
{
    const graph::Csr csr = goldenGraph(7, 1200, 3);
    for (const bool faulted : {false, true}) {
        std::vector<std::string> bytes;
        for (const DomainMode mode :
             {DomainMode::Sequenced, DomainMode::Parallel}) {
            const std::string path = pgcn_test::testPath(
                std::string("mode_") +
                (mode == DomainMode::Parallel ? "par" : "seq") +
                (faulted ? "_faulted" : "_clean") + ".jsonl");
            parallel::SweepOptions options;
            options.jobs = 1;
            options.domains = mode == DomainMode::Parallel ? 4 : 1;
            if (faulted) {
                FaultConfig fc;
                fc.seed = 7;
                fc.dramLatencyJitter = 0.15;
                fc.dramDropRate = 0.01;
                fc.dmaDropRate = 0.01;
                options.faults = fc;
            }
            parallel::SweepRunner runner(options);
            addSoakPoints(runner, csr);
            JsonlCheckpoint ckpt(path, /*resume=*/false);
            const parallel::SweepRunner::Outcome out = runner.run(ckpt);
            EXPECT_EQ(out.computed, soakConfigs().size());
            EXPECT_TRUE(out.errors.empty());
            bytes.push_back(slurp(path));
        }
        SCOPED_TRACE(faulted ? "faulted" : "clean");
        EXPECT_FALSE(bytes[0].empty());
        EXPECT_EQ(bytes[0], bytes[1]);
    }
}

// ---------------------------------------------------------------------------
// 2c. The domain plan: lookahead bound, auto rule, legality

TEST(DomainPlan, LookaheadBoundFollowsModelLatencies)
{
    PiumaConfig cfg;
    cfg.numCores = 8; // single die: every split cuts the die
    // Clean config: the bound is the min one-way network latency.
    EXPECT_DOUBLE_EQ(MemorySystem::modelLookaheadNs(cfg, 2, nullptr),
                     cfg.netSameDieNs);
    // Jitter shrinks it to the worst-case early arrival.
    FaultConfig fc;
    fc.networkLatencyJitter = 0.5;
    EXPECT_DOUBLE_EQ(MemorySystem::modelLookaheadNs(cfg, 4, &fc),
                     cfg.netSameDieNs * 0.5);
    // Two dies. Two domains hold one die each, so only cross-die hops
    // cross a domain boundary; four domains split both dies.
    PiumaConfig multi = cfg;
    multi.numCores = 16;
    EXPECT_DOUBLE_EQ(MemorySystem::modelLookaheadNs(multi, 2, nullptr),
                     multi.netCrossDieNs);
    EXPECT_DOUBLE_EQ(MemorySystem::modelLookaheadNs(multi, 2, &fc),
                     multi.netCrossDieNs * 0.5);
    EXPECT_DOUBLE_EQ(MemorySystem::modelLookaheadNs(multi, 4, &fc),
                     multi.netSameDieNs * 0.5);
    // Drops arm timeouts at the *issue* timestamp, so the detection
    // edge bounds lookahead too: timeout - max request hop.
    fc.dramDropRate = 0.01;
    fc.timeoutNs = 500.0;
    const double drop_edge = fc.timeoutNs - multi.netCrossDieNs * 1.5;
    EXPECT_DOUBLE_EQ(MemorySystem::modelLookaheadNs(multi, 4, &fc),
                     std::min(multi.netSameDieNs * 0.5, drop_edge));
    EXPECT_DOUBLE_EQ(MemorySystem::modelLookaheadNs(multi, 2, &fc),
                     std::min(multi.netCrossDieNs * 0.5, drop_edge));
    // One domain is held to the machine-wide bound (the least hop).
    EXPECT_DOUBLE_EQ(MemorySystem::modelLookaheadNs(multi, 1, nullptr),
                     multi.netSameDieNs);
    // A single-core machine has no cross-domain traffic at all.
    PiumaConfig one;
    one.numCores = 1;
    EXPECT_TRUE(std::isinf(MemorySystem::modelLookaheadNs(one, 1, nullptr)));
}

/** Largest divisor of @p n that does not exceed @p cap (>= 1). */
unsigned
largestDivisorAtMost(unsigned n, unsigned cap)
{
    unsigned d = std::min(n, cap);
    while (n % d != 0)
        --d;
    return d;
}

TEST(DomainPlan, AutoCountKeepsTinyRunsSerial)
{
    // A single-die machine has no cross-die hop to widen the windows:
    // auto picks 1 domain there. Beyond one die it picks the largest
    // divisor of the die count the host has threads for, so every
    // domain holds whole dies (the 16-core, 2-die point runs faster
    // on 2 such domains than serially).
    const unsigned host =
        std::max(1u, std::thread::hardware_concurrency());
    PiumaConfig cfg;
    cfg.numCores = 2;
    EXPECT_EQ(MemorySystem::autoDomainCount(cfg), 1u);
    cfg.numCores = 8; // one whole die
    EXPECT_EQ(MemorySystem::autoDomainCount(cfg), 1u);
    cfg.numCores = 16;
    EXPECT_EQ(MemorySystem::autoDomainCount(cfg), std::min(2u, host));
    cfg.numCores = 24; // three dies: 3 domains, or 1
    EXPECT_EQ(MemorySystem::autoDomainCount(cfg), host >= 3 ? 3u : 1u);
    cfg.numCores = 63; // eight dies, the last one partial
    EXPECT_EQ(MemorySystem::autoDomainCount(cfg),
              largestDivisorAtMost(8, host));
    cfg.numCores = 256;
    EXPECT_EQ(MemorySystem::autoDomainCount(cfg),
              largestDivisorAtMost(32, host));
    cfg.coresPerDie = 256; // the same cores on one die
    EXPECT_EQ(MemorySystem::autoDomainCount(cfg), 1u);

    // Through domainPlan: domains == 0 expands via the rule.
    PiumaConfig tiny;
    tiny.numCores = 2;
    SimControls controls;
    controls.domains = 0;
    controls.domainMode = DomainMode::Auto;
    const DomainSet::Options plan =
        MemorySystem::domainPlan(tiny, &controls);
    EXPECT_EQ(plan.domains, 1u);
}

TEST(DomainPlan, AutoModeGoesParallelWhenLegal)
{
    PiumaConfig cfg;
    cfg.numCores = 8;
    SimControls controls;
    controls.domains = 4;
    controls.domainMode = DomainMode::Auto;
    // An explicit count is honoured; it splits the die, so the
    // windows are a same-die hop wide.
    DomainSet::Options plan = MemorySystem::domainPlan(cfg, &controls);
    EXPECT_EQ(plan.domains, 4u);
    EXPECT_DOUBLE_EQ(plan.lookaheadNs, cfg.netSameDieNs);
    // Two dies on two domains: a cross-die hop wide.
    PiumaConfig two_dies = cfg;
    two_dies.numCores = 16;
    controls.domains = 2;
    plan = MemorySystem::domainPlan(two_dies, &controls);
    EXPECT_EQ(plan.domains, 2u);
    EXPECT_DOUBLE_EQ(plan.lookaheadNs, two_dies.netCrossDieNs);
    // The auto count is die-aligned whenever it shards at all.
    controls.domains = 0;
    plan = MemorySystem::domainPlan(two_dies, &controls);
    EXPECT_EQ(plan.domains, MemorySystem::autoDomainCount(two_dies));
    if (plan.domains > 1) {
        EXPECT_DOUBLE_EQ(plan.lookaheadNs, two_dies.netCrossDieNs);
    }
    // A monitor hub shards with the run: it never changes the plan,
    // in either mode.
    sim::MonitorHub hub;
    controls.monitor = &hub;
    controls.domains = 4;
    plan = MemorySystem::domainPlan(cfg, &controls);
    EXPECT_EQ(plan.domains, 4u);
    EXPECT_DOUBLE_EQ(plan.lookaheadNs, cfg.netSameDieNs);
    controls.domainMode = DomainMode::Parallel;
    EXPECT_EQ(MemorySystem::domainPlan(cfg, &controls).domains, 4u);
}

/**
 * The least latency any message can carry across a domain boundary
 * of @p domains contiguous core blocks, recomputed by walking every
 * (requester, slice) pair on different domains: requests and
 * responses bear at least the pair's hop shrunk by the jitter, and
 * with drops armed a failure notice bears the timeout minus the
 * longest jittered request hop.
 */
double
leastCrossingLatencyNs(const PiumaConfig &cfg, unsigned domains,
                       const FaultConfig &fc)
{
    const auto domainOf = [&](unsigned c) {
        return static_cast<unsigned>(static_cast<uint64_t>(c) * domains /
                                     cfg.numCores);
    };
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (unsigned a = 0; a < cfg.numCores; ++a) {
        for (unsigned b = 0; b < cfg.numCores; ++b) {
            if (domainOf(a) == domainOf(b))
                continue;
            const double hop = a / cfg.coresPerDie == b / cfg.coresPerDie
                                   ? cfg.netSameDieNs
                                   : cfg.netCrossDieNs;
            lo = std::min(lo, hop);
            hi = std::max(hi, hop);
        }
    }
    double least = lo * (1.0 - fc.networkLatencyJitter);
    if (fc.dramDropRate > 0.0 || fc.netDropRate > 0.0)
        least = std::min(least,
                         fc.timeoutNs - hi * (1.0 + fc.networkLatencyJitter));
    return least;
}

// Seeded property: over random (cores, cores per die, domain count,
// faults), the plan's lookahead is exactly the least latency a message
// can carry across a domain boundary, and the Parallel run at that
// lookahead matches the serial engine on every deterministic field.
TEST(DomainPlan, SeededPlansMatchSerialAtTheLeastCrossingLatency)
{
    const graph::Csr csr = goldenGraph(7, 1200, 5);
    uint64_t state = 2024;
    const auto pick = [&](uint64_t n) { return splitMix64(state) % n; };
    unsigned aligned = 0, split = 0, dropped = 0;
    for (int trial = 0; trial < 12; ++trial) {
        PiumaConfig cfg;
        cfg.coresPerDie = 2u << pick(3); // 2, 4 or 8
        cfg.numCores = std::max(
            2u, cfg.coresPerDie * static_cast<unsigned>(1 + pick(3)) -
                    static_cast<unsigned>(pick(2)));
        // Every other trial gives each die its own domain.
        const unsigned dies =
            (cfg.numCores + cfg.coresPerDie - 1) / cfg.coresPerDie;
        const auto domains =
            trial % 2 == 0 && dies > 1
                ? dies
                : static_cast<unsigned>(
                      2 + pick(std::min(cfg.numCores, 6u) - 1));
        FaultConfig fc;
        fc.seed = 100 + static_cast<uint64_t>(trial);
        const uint64_t faults = pick(3); // clean, jitter, jitter + drops
        if (faults > 0) {
            fc.networkLatencyJitter = 0.3;
            fc.dramLatencyJitter = 0.2;
        }
        if (faults > 1) {
            fc.dramDropRate = 0.02;
            fc.timeoutNs = 400.0; // binds below a jittered cross-die hop
            ++dropped;
        }
        SCOPED_TRACE("cores=" + std::to_string(cfg.numCores) +
                     " per die=" + std::to_string(cfg.coresPerDie) +
                     " domains=" + std::to_string(domains) +
                     " faults=" + std::to_string(faults));

        FaultInjector injector(fc);
        SimControls controls;
        controls.faults = faults > 0 ? &injector : nullptr;
        controls.domains = domains;
        controls.domainMode = DomainMode::Parallel;
        const DomainSet::Options plan =
            MemorySystem::domainPlan(cfg, &controls);
        ASSERT_EQ(plan.domains, domains);
        EXPECT_DOUBLE_EQ(plan.lookaheadNs,
                         leastCrossingLatencyNs(cfg, domains, fc));
        (MemorySystem::dieAligned(cfg, domains) ? aligned : split)++;

        const SpmmRunStats serial =
            runSharded(csr, 16, cfg, SpmmAlgorithm::Dma, 1,
                       faults > 0 ? &fc : nullptr);
        const SpmmRunStats par =
            runSharded(csr, 16, cfg, SpmmAlgorithm::Dma, domains,
                       faults > 0 ? &fc : nullptr);
        expectStatsIdentical(serial, par, /*same_count=*/false);
        EXPECT_EQ(par.domains, domains);
        EXPECT_EQ(par.lookaheadNs, plan.lookaheadNs);
        EXPECT_GT(par.windows, 0u);
        EXPECT_GT(par.crossDomainPosts, 0u);
        EXPECT_EQ(serial.windows, 0u);
        EXPECT_EQ(serial.crossDomainPosts, 0u);
    }
    // The seed covers every kind of plan.
    EXPECT_GT(aligned, 0u);
    EXPECT_GT(split, 0u);
    EXPECT_GT(dropped, 0u);
}

TEST(DomainPlan, SequencedIsOneEngine)
{
    PiumaConfig cfg;
    cfg.numCores = 256;
    EXPECT_EQ(MemorySystem::domainPlan(cfg, nullptr).domains, 1u);
    SimControls controls;
    controls.domainMode = DomainMode::Sequenced;
    for (const unsigned d : {0u, 1u}) {
        controls.domains = d;
        EXPECT_EQ(MemorySystem::domainPlan(cfg, &controls).domains,
                  1u);
    }
    // Asking for threads in the one-engine mode is a mistake to
    // report, not a request to quietly ignore.
    controls.domains = 4;
    EXPECT_THROW(MemorySystem::domainPlan(cfg, &controls),
                 ConfigError);
}

TEST(DomainPlan, ExplicitParallelThrowsWhenModelMakesItIllegal)
{
    // Two dies + drops with a timeout shorter than the cross-die hop:
    // a retry re-arrival can precede the window edge, so the bound is
    // non-positive and an explicit --domains N (Parallel) must be a
    // loud ConfigError, never a silent downgrade.
    PiumaConfig cfg;
    cfg.numCores = 16;
    FaultConfig fc;
    fc.dramDropRate = 0.5;
    fc.timeoutNs = 100.0; // < netCrossDieNs = 250
    FaultInjector faults(fc);
    SimControls controls;
    controls.faults = &faults;
    controls.domains = 4;
    controls.domainMode = DomainMode::Parallel;
    EXPECT_THROW(MemorySystem::domainPlan(cfg, &controls),
                 ConfigError);
    // Auto with the same config quietly falls back to one engine.
    controls.domainMode = DomainMode::Auto;
    EXPECT_EQ(MemorySystem::domainPlan(cfg, &controls).domains, 1u);
}

// ---------------------------------------------------------------------------
// 3. Parallel-mode clock protocol: property/stress tests

/**
 * A precomputed random message plan: one chain per domain, each hop
 * recording its execution time on the current domain and posting the
 * next hop cross-domain (or to itself) at now + delay, where every
 * delay is a small multiple of the lookahead — so hops posted at
 * exactly the lookahead boundary are common, delays are exact
 * doubles, and the expected arrival times can be recomputed serially
 * with identical rounding.
 */
struct MessagePlan
{
    double lookaheadNs = 1.0;
    /// dom[c][i]: domain executing hop i of chain c.
    std::vector<std::vector<unsigned>> dom;
    /// delay[c][i]: simulated gap between hop i and hop i+1 of chain
    /// c (multiples of lookaheadNs; the last hop's delay is unused).
    std::vector<std::vector<double>> delay;
    /// startNs[c]: simulated time of chain c's hop 0.
    std::vector<double> startNs;
};

MessagePlan
randomPlan(unsigned domains, unsigned hops, double lookahead_ns,
           uint64_t seed)
{
    std::mt19937_64 rng(seed);
    MessagePlan plan;
    plan.lookaheadNs = lookahead_ns;
    plan.dom.resize(domains);
    plan.delay.resize(domains);
    plan.startNs.resize(domains);
    for (unsigned c = 0; c < domains; ++c) {
        plan.startNs[c] = static_cast<double>(c + 1) * lookahead_ns;
        plan.dom[c].resize(hops);
        plan.delay[c].resize(hops);
        plan.dom[c][0] = c;
        for (unsigned i = 0; i < hops; ++i) {
            if (i + 1 < hops) {
                plan.dom[c][i + 1] = static_cast<unsigned>(rng() % domains);
            }
            // 1x the lookahead — the adversarial boundary — with
            // probability 1/2; else 2x or 3x.
            const uint64_t mult = 1 + (rng() % 2 != 0 ? 0 : rng() % 2 + 1);
            plan.delay[c][i] = static_cast<double>(mult) * lookahead_ns;
        }
    }
    return plan;
}

/**
 * Execute @p plan on a Parallel DomainSet and return the per-domain
 * execution-time logs. Each domain's log is written only by its own
 * worker thread; the join inside DomainSet::run orders the reads.
 */
std::vector<std::vector<double>>
runPlan(const MessagePlan &plan)
{
    DomainSet::Options opts;
    opts.domains = static_cast<unsigned>(plan.dom.size());
    opts.lookaheadNs = plan.lookaheadNs;
    DomainSet set(opts);

    std::vector<std::vector<double>> times(opts.domains);
    // A local the events reach by reference: a shared_ptr captured
    // in its own target would form a cycle and never be freed.
    std::function<void(unsigned, unsigned)> fire =
        [&set, &plan, &times, &fire](unsigned c, unsigned hop) {
            const unsigned cur = plan.dom[c][hop];
            times[cur].push_back(set.engine(cur).now());
            if (hop + 1 < plan.dom[c].size()) {
                const unsigned nxt = plan.dom[c][hop + 1];
                set.postKeyed(cur, nxt,
                              set.engine(cur).now() + plan.delay[c][hop],
                              makeKeyedSeq(kSeqBandRequest, c, hop),
                              [&fire, c, hop] { fire(c, hop + 1); });
            }
        };
    for (unsigned c = 0; c < opts.domains; ++c) {
        set.engine(plan.dom[c][0])
            .schedule(plan.startNs[c], [&fire, c] { fire(c, 0u); });
    }
    set.run();
    return times;
}

/** Expected per-domain execution times, recomputed serially. */
std::vector<std::vector<double>>
expectedTimes(const MessagePlan &plan)
{
    std::vector<std::vector<double>> expected(plan.dom.size());
    for (size_t c = 0; c < plan.dom.size(); ++c) {
        double t = plan.startNs[c];
        for (size_t i = 0; i < plan.dom[c].size(); ++i) {
            expected[plan.dom[c][i]].push_back(t);
            t += plan.delay[c][i];
        }
    }
    for (auto &v : expected)
        std::sort(v.begin(), v.end());
    return expected;
}

// Randomized micro-topologies: every event must run at exactly its
// timestamp (bit-exact, since all times are sums of exact multiples
// of the lookahead accumulated in the same order), and each domain's
// dispatch log must be non-decreasing — no event ever executes ahead
// of one with a smaller timestamp on the same domain.
TEST(DomainParallel, RandomTopologiesExecuteInTimestampOrder)
{
    // 1.0 is the 1 ns adversarial lookahead from the issue; 0.5 and
    // 5.0 vary the boundary's binary representation and magnitude.
    for (const double lookahead : {1.0, 0.5, 5.0}) {
        for (uint64_t trial = 0; trial < 6; ++trial) {
            const unsigned domains = 2 + static_cast<unsigned>(trial % 3);
            const MessagePlan plan = randomPlan(
                domains, /*hops=*/40, lookahead, 1000 * trial + 11);
            SCOPED_TRACE("lookahead=" + std::to_string(lookahead) +
                         " trial=" + std::to_string(trial) +
                         " domains=" + std::to_string(domains));
            std::vector<std::vector<double>> times = runPlan(plan);
            for (const std::vector<double> &log : times) {
                for (size_t i = 1; i < log.size(); ++i)
                    EXPECT_LE(log[i - 1], log[i]);
            }
            for (auto &log : times)
                std::sort(log.begin(), log.end());
            EXPECT_EQ(times, expectedTimes(plan));
        }
    }
}

// Deterministic ping-pong at exactly the lookahead boundary: 100
// messages alternating between two domains, every hand-off posted at
// now + L precisely. The tightest legal schedule the protocol admits.
TEST(DomainParallel, LookaheadBoundaryPingPong)
{
    constexpr double kLookahead = 1.0; // 1 ns
    DomainSet::Options opts;
    opts.domains = 2;
    opts.lookaheadNs = kLookahead;
    DomainSet set(opts);

    std::vector<std::vector<double>> times(2);
    std::function<void(unsigned, unsigned)> fire =
        [&set, &times, &fire](unsigned cur, unsigned hop) {
            times[cur].push_back(set.engine(cur).now());
            if (hop < 100) {
                set.postKeyed(cur, 1 - cur,
                              set.engine(cur).now() + kLookahead,
                              makeKeyedSeq(kSeqBandRequest, 0, hop),
                              [&fire, cur, hop] { fire(1 - cur, hop + 1); });
            }
        };
    set.engine(0).schedule(kLookahead, [&fire] { fire(0u, 0u); });
    const SimTime end = set.run();
    EXPECT_DOUBLE_EQ(end, 101.0 * kLookahead);
    ASSERT_EQ(times[0].size(), 51u);
    ASSERT_EQ(times[1].size(), 50u);
    for (size_t i = 0; i < times[0].size(); ++i)
        EXPECT_EQ(times[0][i], (2.0 * static_cast<double>(i) + 1.0));
    for (size_t i = 0; i < times[1].size(); ++i)
        EXPECT_EQ(times[1][i], (2.0 * static_cast<double>(i) + 2.0));
    EXPECT_EQ(set.crossDomainPosts(), 100u);
    // Every hop sits on a window edge: one window per hop.
    EXPECT_EQ(set.windows(), 101u);
}

// Null-message idle-advance: domains with no work (or which finish
// early) publish +inf and keep the barriers turning; a busy neighbor
// must run to completion without deadlock.
TEST(DomainParallel, IdleNeighborDoesNotDeadlock)
{
    DomainSet::Options opts;
    opts.domains = 3;
    opts.lookaheadNs = 1.0;
    DomainSet set(opts);

    // Domain 1 finishes at t=3; domain 2 never has any work at all.
    unsigned busy_fired = 0;
    std::function<void(unsigned)> chain =
        [&set, &busy_fired, &chain](unsigned remaining) {
            ++busy_fired;
            if (remaining > 0) {
                set.engine(0).schedule(
                    7.0, [&chain, remaining] { chain(remaining - 1); });
            }
        };
    set.engine(0).schedule(7.0, [&chain] { chain(49u); });
    bool short_fired = false;
    set.engine(1).schedule(3.0, [&short_fired] { short_fired = true; });

    const SimTime end = set.run();
    EXPECT_EQ(busy_fired, 50u);
    EXPECT_TRUE(short_fired);
    EXPECT_DOUBLE_EQ(end, 350.0);
}

Process
starvedConsumer(Engine &engine, BoundedQueue<int> &queue)
{
    co_await engine.announce("node1.starved-consumer");
    [[maybe_unused]] const int v = co_await queue.pop();
}

// A deadlock on one domain must surface as SimDeadlockError naming
// the blocked agent even though other domains drained cleanly — the
// blocked-agent sweep crosses every domain.
TEST(DomainParallel, DeadlockNamesAgentsAcrossDomains)
{
    DomainSet::Options opts;
    opts.domains = 2;
    opts.lookaheadNs = 1.0;
    DomainSet set(opts);

    BoundedQueue<int> queue(set.engine(1), 4, "node1.orphan.queue");
    starvedConsumer(set.engine(1), queue);
    set.engine(0).schedule(5.0, [] {});
    try {
        set.run();
        FAIL() << "expected SimDeadlockError";
    } catch (const SimDeadlockError &e) {
        ASSERT_EQ(e.blocked().size(), 1u);
        EXPECT_EQ(e.blocked()[0].agent, "node1.starved-consumer");
        EXPECT_EQ(e.blocked()[0].resource,
                  "node1.orphan.queue (pop: queue empty)");
    }
}

// An exception thrown by one domain's event must propagate out of
// run() (not hang the barrier protocol, not crash a worker thread).
TEST(DomainParallel, WorkerExceptionPropagates)
{
    DomainSet::Options opts;
    opts.domains = 2;
    opts.lookaheadNs = 1.0;
    DomainSet set(opts);

    std::function<void(unsigned)> chain = [&set, &chain](unsigned remaining) {
        if (remaining > 0) {
            set.engine(0).schedule(
                2.0, [&chain, remaining] { chain(remaining - 1); });
        }
    };
    set.engine(0).schedule(2.0, [&chain] { chain(200u); });
    set.engine(1).schedule(5.0,
                           [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(set.run(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// 4. The carried-key tiebreak

// Two cross-domain messages with equal timestamps from different
// source domains dispatch in the order of their carried keys. The
// higher-numbered domain holds the lower key and posts first, so
// neither source-domain order nor posting order could produce the
// expected sequence; the lower-numbered domain holding the lower key
// is checked too. A local event of the destination at the same
// timestamp runs before both: ordinary events dispatch before keyed
// messages. Repeated to let the scheduler jitter which worker thread
// fills its mailbox first.
TEST(DomainTiebreak, EqualTimestampsOrderByCarriedKey)
{
    for (unsigned iter = 0; iter < 50; ++iter) {
        for (const bool high_domain_low_key : {true, false}) {
            DomainSet::Options opts;
            opts.domains = 3;
            opts.lookaheadNs = 1.0;
            DomainSet set(opts);

            const uint64_t key2 = makeKeyedSeq(
                kSeqBandResponse, high_domain_low_key ? 1u : 2u, 0);
            const uint64_t key1 = makeKeyedSeq(
                kSeqBandResponse, high_domain_low_key ? 2u : 1u, 0);
            // Written only by domain 0's thread.
            std::vector<unsigned> order;
            // Both messages target domain 0 at timestamp 2.0; domain 2
            // posts at t=0, domain 1 at t=0.5.
            set.engine(2).schedule(0.0, [&set, &order, key2] {
                set.postKeyed(2, 0, 2.0, key2,
                              [&order] { order.push_back(2); });
            });
            set.engine(1).schedule(0.5, [&set, &order, key1] {
                set.postKeyed(1, 0, 2.0, key1,
                              [&order] { order.push_back(1); });
            });
            set.engine(0).schedule(2.0, [&order] { order.push_back(0); });
            set.run();
            SCOPED_TRACE(high_domain_low_key ? "domain 2 holds the lower key"
                                             : "domain 1 holds the lower key");
            const std::vector<unsigned> expected =
                high_domain_low_key ? std::vector<unsigned>{0, 2, 1}
                                    : std::vector<unsigned>{0, 1, 2};
            ASSERT_EQ(order, expected);
        }
    }
}

// Equal timestamp, same source entity: its per-entity stamps grow
// with every post, so its messages dispatch first in, first out.
TEST(DomainTiebreak, EqualTimestampsSameSourceAreFifo)
{
    DomainSet::Options opts;
    opts.domains = 2;
    opts.lookaheadNs = 1.0;
    DomainSet set(opts);

    std::vector<int> order;
    set.engine(1).schedule(0.0, [&set, &order] {
        set.postKeyed(1, 0, 2.0, makeKeyedSeq(kSeqBandRequest, 1, 0),
                      [&order] { order.push_back(10); });
        set.postKeyed(1, 0, 2.0, makeKeyedSeq(kSeqBandRequest, 1, 1),
                      [&order] { order.push_back(11); });
    });
    set.run();
    EXPECT_EQ(order, (std::vector<int>{10, 11}));
}

// ---------------------------------------------------------------------------
// 5. Clock plumbing: runUntil strictness

TEST(DomainClock, RunUntilDispatchesStrictlyBeforeHorizon)
{
    Engine engine;
    std::vector<int> fired;
    engine.schedule(5.0, [&fired] { fired.push_back(5); });
    engine.schedule(10.0, [&fired] { fired.push_back(10); });
    engine.runUntil(10.0);
    EXPECT_EQ(fired, (std::vector<int>{5})); // 10.0 is NOT < horizon
    EXPECT_TRUE(engine.hasPending());
    engine.run();
    EXPECT_EQ(fired, (std::vector<int>{5, 10}));
}

// ---------------------------------------------------------------------------
// 6. Callback integrity: closures at Callback's full capacity survive
//    the slab's block growth and the mailboxes byte for byte, and fire
//    in (when, seq) order.

/** Payload word @p i of the closure stamped @p ticket. */
uint64_t
probeWord(uint64_t ticket, unsigned i)
{
    return (ticket + 1) * 0x9E3779B97F4A7C15ull ^
           (uint64_t{i} * 0xC2B2AE3D27D4EB4Full);
}

/**
 * Self-checking probes. Each closure captures the probe pointer plus
 * seven payload words, 64 bytes in all; words[0] is the closure's
 * order key and the rest derive from it, so a relocated, aliased or
 * torn slot fails the check. Every record is written only by the
 * thread of the domain it belongs to.
 */
struct Probe
{
    using Words = std::array<uint64_t, 7>;

    struct Domain
    {
        SimTime lastWhen = -1.0;
        uint64_t lastKey = 0;
        uint64_t fired = 0;
        uint64_t posted = 0;
        uint64_t corrupt = 0;
        uint64_t misordered = 0;
        uint64_t nextStamp = 0; ///< keyed stamps for self posts
        uint64_t nextCross = 0; ///< keyed stamps for cross posts
    };

    /** A full-capacity closure carrying order key @p key. */
    Callback
    closure(uint64_t key)
    {
        Words words{};
        words[0] = key;
        for (unsigned i = 1; i < words.size(); ++i)
            words[i] = probeWord(key, i);
        Probe *self = this;
        const auto fn = [self, words] { self->fire(words); };
        static_assert(sizeof(fn) == Callback::kCapacity,
                      "the probe must fill the callback storage");
        return fn;
    }

    /**
     * Check that @p words still belong to the closure that fired with
     * key @p key, and that (now, key) follows the domain's last
     * firing.
     */
    void
    check(unsigned dom, SimTime now, uint64_t key, const Words &words)
    {
        Domain &d = doms[dom];
        d.corrupt += words[0] != key;
        for (unsigned i = 1; i < words.size(); ++i)
            d.corrupt += words[i] != probeWord(key, i);
        const bool after =
            now > d.lastWhen || (now == d.lastWhen && key > d.lastKey);
        d.misordered += !after;
        d.lastWhen = now;
        d.lastKey = key;
        ++d.fired;
    }

    virtual void fire(const Words &words) = 0;
    virtual ~Probe() = default;

    std::vector<Domain> doms;
};

// One engine: a root closure schedules a wide burst from inside
// dispatch, so the slab grows several blocks while a callback runs
// from it; every probe then reschedules one more until the budget is
// spent. Keys are schedule tickets, which is engine seq order.
struct EngineProbe : Probe
{
    static constexpr uint64_t kBurst = 1500;
    static constexpr uint64_t kTotal = 6000;

    Engine engine;
    uint64_t nextTicket = 0;

    EngineProbe() { doms.resize(1); }

    void
    spawn()
    {
        const uint64_t ticket = nextTicket++;
        // Few distinct delays, zero included: many equal timestamps
        // in both the now queue and the far calendar.
        engine.schedule(0.5 * static_cast<double>(ticket * 7919 % 5),
                        closure(ticket));
        ++doms[0].posted;
    }

    void
    fire(const Words &words) override
    {
        // Spawn first, check after: a slot recycled or moved while
        // its closure runs shows up as corrupt words.
        const uint64_t ticket = words[0];
        if (ticket == 0) {
            for (uint64_t i = 0; i < kBurst; ++i)
                spawn();
        } else if (nextTicket < kTotal) {
            spawn();
        }
        check(0, engine.now(), ticket, words);
    }
};

TEST(CallbackIntegrity, FullCapacityClosuresSurviveSlabGrowth)
{
    EngineProbe probe;
    // Pre-size the calendar arenas, so the growths counted below are
    // the callback slab's own blocks.
    probe.engine.reserveEvents(4 * EngineProbe::kTotal,
                               4 * EngineProbe::kTotal);
    probe.spawn();
    probe.engine.run();
    const Probe::Domain &d = probe.doms[0];
    EXPECT_EQ(d.fired, EngineProbe::kTotal);
    EXPECT_EQ(d.posted, EngineProbe::kTotal);
    EXPECT_EQ(d.corrupt, 0u);
    EXPECT_EQ(d.misordered, 0u);
    EXPECT_EQ(probe.engine.callbackEvents(), EngineProbe::kTotal);
    const uint64_t growths = probe.engine.arenaGrowths();
    EXPECT_GT(growths, 1u); // the burst outgrew more than one block

    // A second wave of the same shape reuses the freed slots: the
    // slab does not grow again.
    probe.nextTicket = 0;
    probe.doms[0] = Probe::Domain{};
    probe.spawn();
    probe.engine.run();
    EXPECT_EQ(probe.doms[0].corrupt, 0u);
    EXPECT_EQ(probe.doms[0].misordered, 0u);
    EXPECT_EQ(probe.engine.arenaGrowths(), growths);
}

// Two Parallel domains, each running kChains keyed self-post chains.
// Every link also posts a burst of three keyed closures to the other
// domain, at one shared timestamp and in descending key order.
// Carried keys decide the dispatch order, so each domain must fire in
// strictly increasing (when, key) order, with every closure intact
// after the slab and the mailbox.
struct DomainProbe : Probe
{
    static constexpr uint64_t kChains = 300;  ///< self chains per domain
    static constexpr uint64_t kBudget = 6000; ///< self posts per domain

    DomainSet set;

    explicit DomainProbe(double lookahead)
        : set(DomainSet::Options{2, lookahead})
    {
        doms.resize(2);
    }

    /** Keyed sequence number @p stamp of entity @p entity. */
    static uint64_t
    key(unsigned entity, uint64_t stamp)
    {
        return makeKeyedSeq(kSeqBandRequest, entity, stamp);
    }

    /** Post the next self link of @p dom at @p when. */
    void
    postSelf(unsigned dom, SimTime when)
    {
        const uint64_t k = key(2 + dom, doms[dom].nextStamp++);
        set.postKeyed(dom, dom, when, k, closure(k));
        ++doms[dom].posted;
    }

    void
    fire(const Words &words) override
    {
        // Entities 0/1 carry cross posts from domain 0/1, entities 2/3
        // self posts in domain 0/1.
        const uint64_t own = words[0];
        const unsigned entity = static_cast<unsigned>(
            (own >> kSeqEntityShift) & ((1u << (62 - kSeqEntityShift)) - 1));
        const unsigned dom = entity >= 2 ? entity - 2 : 1 - entity;
        const SimTime now = set.engine(dom).now();
        Domain &d = doms[dom];
        if (entity >= 2 && d.nextStamp < kBudget) {
            postSelf(dom, now + 0.25);
            const SimTime when = now + set.lookaheadNs() +
                                 0.5 * static_cast<double>(d.nextStamp % 3);
            const uint64_t base = d.nextCross;
            d.nextCross += 3;
            for (uint64_t i = 3; i-- > 0;) {
                const uint64_t k = key(dom, base + i);
                set.postKeyed(dom, 1 - dom, when, k, closure(k));
            }
            d.posted += 3;
        }
        check(dom, now, own, words);
    }
};

TEST(CallbackIntegrity, FullCapacityClosuresCrossParallelMailboxes)
{
    DomainProbe probe(1.0);
    for (unsigned dom = 0; dom < 2; ++dom)
        for (uint64_t c = 0; c < DomainProbe::kChains; ++c)
            probe.postSelf(dom, 0.0);
    probe.set.run();
    uint64_t posted = 0;
    uint64_t fired = 0;
    for (unsigned dom = 0; dom < 2; ++dom) {
        SCOPED_TRACE("domain " + std::to_string(dom));
        const Probe::Domain &d = probe.doms[dom];
        EXPECT_EQ(d.corrupt, 0u);
        EXPECT_EQ(d.misordered, 0u);
        EXPECT_GT(probe.set.engine(dom).arenaGrowths(), 1u);
        posted += d.posted;
        fired += d.fired;
    }
    EXPECT_EQ(fired, posted);
    EXPECT_EQ(probe.set.crossDomainPosts(),
              2 * 3 * (DomainProbe::kBudget - DomainProbe::kChains));
}

} // namespace
