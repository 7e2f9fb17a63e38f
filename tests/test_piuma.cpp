/**
 * @file
 * Tests for the PIUMA timing model: configuration invariants, DGAS
 * memory latency composition, DMA engine behaviour, and — most
 * importantly — the paper's qualitative findings reproduced as
 * properties of the simulated SpMM:
 *   (1) DMA SpMM reaches a high fraction of the bandwidth-bound model
 *       and strong-scales; loop-unrolled falls off at high core
 *       counts (Fig. 5);
 *   (2) throughput scales ~linearly with DRAM bandwidth (Fig. 6 top);
 *   (3) DMA SpMM is latency-insensitive with 16 threads/MTP but loses
 *       that insensitivity at 1 thread/MTP for small K (Figs. 6-7);
 *   (4) traffic matches the analytical equations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "graph/reorder.hpp"
#include "kernels/spmm.hpp"
#include "model/spmm_model.hpp"
#include "parallel/thread_pool.hpp"
#include "piuma/config.hpp"
#include "piuma/memory.hpp"
#include "piuma/node_model.hpp"
#include "piuma/spmm_programs.hpp"
#include "tensor/dense_matrix.hpp"

namespace {

using namespace pgcn;
using namespace pgcn::piuma;

graph::Csr
testGraph(uint32_t scale, graph::EdgeId edges, uint64_t seed = 99)
{
    return graph::normalizedAdjacency(
        graph::generateRmat(scale, edges, graph::rmatSkewed(), seed));
}

PiumaConfig
smallConfig(unsigned cores)
{
    PiumaConfig cfg;
    cfg.numCores = cores;
    return cfg;
}

TEST(PiumaConfig, Derived)
{
    PiumaConfig cfg = PiumaConfig::singleDie();
    EXPECT_EQ(cfg.numCores, 8u);
    EXPECT_EQ(cfg.totalThreads(), 8u * 4u * 16u);
    EXPECT_DOUBLE_EQ(cfg.aggregateBandwidth(),
                     8 * cfg.sliceBandwidthGBps);
    PiumaConfig node = PiumaConfig::node();
    EXPECT_EQ(node.numCores, 256u);
    EXPECT_GT(node.totalThreads(), 16000u); // ">16K threads per node"
}

TEST(PiumaConfig, NetworkLatencyTiers)
{
    PiumaConfig cfg;
    cfg.numCores = 16; // two dies
    EXPECT_DOUBLE_EQ(cfg.oneWayLatencyNs(3, 3), 0.0);
    EXPECT_DOUBLE_EQ(cfg.oneWayLatencyNs(0, 7), cfg.netSameDieNs);
    EXPECT_DOUBLE_EQ(cfg.oneWayLatencyNs(0, 8), cfg.netCrossDieNs);
}

TEST(PiumaConfig, SweepScalesApply)
{
    PiumaConfig cfg;
    cfg.dramLatencyScale = 4.0;
    cfg.dramBandwidthScale = 0.5;
    EXPECT_DOUBLE_EQ(cfg.effectiveDramLatencyNs(),
                     4.0 * cfg.dramLatencyNs);
    EXPECT_DOUBLE_EQ(cfg.effectiveSliceBandwidth(),
                     0.5 * cfg.sliceBandwidthGBps);
}

/** Coroutine driver: one awaited access, result captured by ref. */
sim::Process
readOnce(MemorySystem &mem, unsigned core, unsigned slice, double bytes,
         bool pipelined, MemoryAccess &out)
{
    out = co_await mem.read(core, slice, bytes, pipelined);
}

/** Same, but issuing only after @p delay (arrival-order tests). */
sim::Process
readAfter(sim::Engine &eng, MemorySystem &mem, sim::SimTime delay,
          unsigned core, unsigned slice, double bytes, MemoryAccess &out)
{
    co_await eng.delay(delay);
    out = co_await mem.read(core, slice, bytes);
}

TEST(Memory, LocalAccessLatency)
{
    sim::DomainSet domains{1u};
    PiumaConfig cfg = smallConfig(2);
    MemorySystem mem(domains, cfg);
    MemoryAccess acc;
    readOnce(mem, 0, 0, 64.0, /*pipelined=*/false, acc);
    domains.run();
    // Local: no network latency; service = transfer only.
    EXPECT_DOUBLE_EQ(acc.serviceDoneAt, 64.0 / cfg.sliceBandwidthGBps);
    EXPECT_DOUBLE_EQ(acc.responseAt,
                     acc.serviceDoneAt + cfg.dramLatencyNs);
}

TEST(Memory, RemoteAccessAddsNetworkLatency)
{
    sim::DomainSet domains{1u};
    PiumaConfig cfg = smallConfig(2); // same die
    MemorySystem mem(domains, cfg);
    MemoryAccess acc;
    readOnce(mem, 0, 1, 64.0, /*pipelined=*/false, acc);
    domains.run();
    const double transfer = 64.0 / cfg.sliceBandwidthGBps;
    EXPECT_DOUBLE_EQ(acc.serviceDoneAt, cfg.netSameDieNs + transfer);
    EXPECT_DOUBLE_EQ(acc.responseAt, acc.serviceDoneAt +
                                         cfg.dramLatencyNs +
                                         cfg.netSameDieNs);
}

TEST(Memory, PipelinedRemoteSkipsDramLatency)
{
    // Pipelined accesses overlap the DRAM leg with the streamed
    // transfer, but the request hop is a real event since the
    // two-phase protocol: service cannot start before the request
    // reaches the slice, and the response still pays the return hop.
    sim::DomainSet domains{1u};
    PiumaConfig cfg = smallConfig(2);
    MemorySystem mem(domains, cfg);
    MemoryAccess acc;
    readOnce(mem, 0, 1, 64.0, /*pipelined=*/true, acc);
    domains.run();
    const double transfer = 64.0 / cfg.sliceBandwidthGBps;
    EXPECT_DOUBLE_EQ(acc.serviceDoneAt, cfg.netSameDieNs + transfer);
    EXPECT_DOUBLE_EQ(acc.responseAt,
                     acc.serviceDoneAt + cfg.netSameDieNs);
}

TEST(Memory, ContentionQueues)
{
    // Local clean accesses resolve synchronously at issue, so two
    // back-to-back issues from the same core must queue on the slice.
    sim::DomainSet domains{1u};
    PiumaConfig cfg = smallConfig(1);
    MemorySystem mem(domains, cfg);
    PendingAccess first, second;
    mem.readAsync(0, 0, 256.0, /*pipelined=*/false, first);
    mem.readAsync(0, 0, 256.0, /*pipelined=*/false, second);
    ASSERT_EQ(first.remaining, 0u);
    ASSERT_EQ(second.remaining, 0u);
    EXPECT_GT(second.acc.serviceDoneAt, first.acc.serviceDoneAt);
    EXPECT_DOUBLE_EQ(second.acc.serviceDoneAt,
                     2.0 * first.acc.serviceDoneAt);
}

TEST(Memory, ArbitrationFollowsArrivalNotIssueOrder)
{
    // Two requesters, one slice, issue order != arrival order: the
    // cross-die request leaves first (t=0) but its 250 ns request hop
    // lands it at the slice *after* the same-die request issued at
    // t=100 (arrival 120). Grants must follow arrival timestamps, so
    // the later-issued same-die requester is served first and the
    // earlier-issued cross-die one queues behind it.
    sim::DomainSet domains{1u};
    PiumaConfig cfg = smallConfig(16); // two dies of 8
    MemorySystem mem(domains, cfg);
    const double bytes = 4096.0; // service long enough to overlap
    const double transfer = bytes / cfg.sliceBandwidthGBps;
    MemoryAccess cross_die, same_die;
    readAfter(domains.engine(0), mem, 0.0, /*core=*/8, /*slice=*/0,
              bytes, cross_die);
    readAfter(domains.engine(0), mem, 100.0, /*core=*/1, /*slice=*/0,
              bytes, same_die);
    domains.run();
    ASSERT_LT(100.0 + cfg.netSameDieNs, cfg.netCrossDieNs);
    EXPECT_DOUBLE_EQ(same_die.serviceDoneAt,
                     100.0 + cfg.netSameDieNs + transfer);
    EXPECT_DOUBLE_EQ(cross_die.serviceDoneAt,
                     same_die.serviceDoneAt + transfer);
}

TEST(Memory, AbortedRunNamesAndReleasesParkedWaiters)
{
    // A caller parked on a remote response sits in no event arena:
    // the memory system's per-domain waiter list is what names it
    // when a budget stops the run, and what destroys its frame at
    // teardown (the sanitizer build checks that it does).
    sim::DomainSet domains{1u};
    PiumaConfig cfg = smallConfig(2);
    MemorySystem mem(domains, cfg);
    MemoryAccess acc{0.0, 0.0};
    [](sim::Engine &eng, MemorySystem &m,
       MemoryAccess &out) -> sim::Process {
        co_await eng.announce("reader");
        out = co_await m.read(0, 1, 64.0);
    }(domains.engine(0), mem, acc);
    EXPECT_EQ(domains.engine(0).blockedWaiters(), 1u);
    sim::Engine::RunLimits limits;
    limits.maxEvents = 1; // the request arrives; the response never runs
    domains.setRunLimits(limits);
    try {
        domains.run();
        FAIL() << "expected SimLimitError";
    } catch (const sim::SimLimitError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "'reader' on 'memory response (core 0, 1 chunk(s) "
                      "outstanding)'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(domains.engine(0).blockedWaiters(), 1u);
}

TEST(SpmmSim, TrafficMatchesAnalyticalEquations)
{
    // DRAM reads must cover the CSR and feature traffic of Eqs. 1-2;
    // writes must be close to Eq. 3 (plus per-thread shared-row
    // duplicates). Line-granularity NNZ fetches over-fetch slightly.
    graph::Csr csr = testGraph(9, 4000);
    const unsigned k = 32;
    PiumaConfig cfg = smallConfig(2);
    const auto stats =
        simulateSpmm(csr, k, cfg, SpmmAlgorithm::Dma);

    model::SpmmWorkload w{csr.numVertices(), csr.numEdges(), k};
    const auto est = model::estimateSpmm(w, 1.0, 1.0);

    // Feature reads dominate; allow the line-granularity CSR streams
    // and binary-search probes to add at most ~3x the (small) CSR
    // term.
    EXPECT_GE(stats.bytesRead, est.bytesFeature);
    EXPECT_LE(stats.bytesRead, est.bytesFeature + 4.0 * est.bytesCsr +
                                   cfg.totalThreads() * 64.0 * 16.0);
    // Writes: every row once, plus at most one duplicate per thread.
    EXPECT_GE(stats.bytesWritten, est.bytesWrite);
    EXPECT_LE(stats.bytesWritten,
              est.bytesWrite + cfg.totalThreads() * 4.0 * k);
}

TEST(SpmmSim, DmaReachesHighFractionOfBandwidthModel)
{
    graph::Csr csr = testGraph(11, 40000);
    const unsigned k = 64;
    PiumaConfig cfg = smallConfig(4);
    const auto stats = simulateSpmm(csr, k, cfg, SpmmAlgorithm::Dma);

    model::SpmmWorkload w{csr.numVertices(), csr.numEdges(), k};
    const double bw = cfg.aggregateBandwidth();
    const auto est = model::estimateSpmm(w, bw, bw);

    const double fraction = est.timeNs / stats.makespanNs;
    EXPECT_GT(fraction, 0.65) << "DMA SpMM too far from the model";
    EXPECT_LE(fraction, 1.05) << "DMA SpMM cannot beat the bound";
}

TEST(SpmmSim, DmaStrongScalesBetterThanLoopUnrolled)
{
    graph::Csr csr = testGraph(11, 40000);
    const unsigned k = 64;

    const auto dma1 =
        simulateSpmm(csr, k, smallConfig(1), SpmmAlgorithm::Dma);
    const auto dma8 =
        simulateSpmm(csr, k, smallConfig(8), SpmmAlgorithm::Dma);
    const auto lu1 =
        simulateSpmm(csr, k, smallConfig(1), SpmmAlgorithm::LoopUnrolled);
    const auto lu8 =
        simulateSpmm(csr, k, smallConfig(8), SpmmAlgorithm::LoopUnrolled);

    const double dma_speedup = dma1.makespanNs / dma8.makespanNs;
    const double lu_speedup = lu1.makespanNs / lu8.makespanNs;
    EXPECT_GT(dma_speedup, 5.0) << "DMA should scale near-linearly to 8";
    EXPECT_GT(dma_speedup, lu_speedup)
        << "loop-unrolled must scale worse than DMA";
}

TEST(SpmmSim, ThroughputScalesWithBandwidth)
{
    // Fig. 6 (top): GFLOPS linear in per-slice bandwidth.
    graph::Csr csr = testGraph(10, 20000);
    PiumaConfig cfg = smallConfig(2);
    cfg.dramBandwidthScale = 0.5;
    const auto half = simulateSpmm(csr, 64, cfg, SpmmAlgorithm::Dma);
    cfg.dramBandwidthScale = 1.0;
    const auto full = simulateSpmm(csr, 64, cfg, SpmmAlgorithm::Dma);
    const double ratio = full.gflops / half.gflops;
    EXPECT_GT(ratio, 1.7);
    EXPECT_LT(ratio, 2.2);
}

TEST(SpmmSim, LatencyInsensitiveWithFullThreads)
{
    // Fig. 6 (bottom): 8x DRAM latency (45 -> 360 ns) costs little
    // when 16 threads/MTP hide it.
    graph::Csr csr = testGraph(10, 20000);
    PiumaConfig cfg = smallConfig(2);
    const auto base = simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma);
    cfg.dramLatencyScale = 8.0;
    const auto slow = simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma);
    EXPECT_LT(slow.makespanNs / base.makespanNs, 1.3);
}

TEST(SpmmSim, SingleThreadLosesLatencyToleranceAtSmallK)
{
    // Fig. 7: with 1 thread/MTP and K=8 the NNZ latency hits the
    // critical path; the same latency increase now hurts.
    graph::Csr csr = testGraph(10, 20000);
    PiumaConfig cfg = smallConfig(2);
    cfg.threadsPerMtp = 1;
    const auto base = simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma);
    cfg.dramLatencyScale = 8.0;
    const auto slow = simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma);
    EXPECT_GT(slow.makespanNs / base.makespanNs, 1.5);
}

TEST(SpmmSim, LargeKMoreTolerantThanSmallKAtOneThread)
{
    // Fig. 7: at 1 thread/MTP, K=256 retains more latency tolerance
    // than K=8 (larger DMA transfers per NNZ read).
    graph::Csr csr = testGraph(9, 8000);
    PiumaConfig cfg = smallConfig(2);
    cfg.threadsPerMtp = 1;

    const auto base8 = simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma);
    const auto base256 = simulateSpmm(csr, 256, cfg, SpmmAlgorithm::Dma);
    cfg.dramLatencyScale = 8.0;
    const auto slow8 = simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma);
    const auto slow256 = simulateSpmm(csr, 256, cfg, SpmmAlgorithm::Dma);

    const double degradation8 = slow8.makespanNs / base8.makespanNs;
    const double degradation256 = slow256.makespanNs / base256.makespanNs;
    EXPECT_GT(degradation8, degradation256);
}

TEST(SpmmSim, NnzShareOfTrafficShrinksWithK)
{
    // Fig. 8 (right): the execution-time share attributable to NNZ
    // reads falls as the embedding dimension grows ("2 NNZs per 8 DMA
    // reads/writes at K=8 vs 2 per 256 at K=256"). Engine time is
    // proportional to traffic, so compare the CSR-stream share of
    // DRAM reads.
    graph::Csr csr = testGraph(9, 8000);
    PiumaConfig cfg = smallConfig(2);
    const auto k8 = simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma);
    const auto k256 = simulateSpmm(csr, 256, cfg, SpmmAlgorithm::Dma);
    const double share8 =
        static_cast<double>(k8.nnzReads) * 64.0 / k8.bytesRead;
    const double share256 =
        static_cast<double>(k256.nnzReads) * 64.0 / k256.bytesRead;
    EXPECT_GT(share8, 5.0 * share256);
}

TEST(SpmmSim, NetworkIsNotTheBottleneck)
{
    // Key takeaway 3: slice controllers saturate before network ports.
    graph::Csr csr = testGraph(11, 40000);
    const auto stats =
        simulateSpmm(csr, 64, smallConfig(8), SpmmAlgorithm::Dma);
    EXPECT_GT(stats.memUtilization, 0.5);
    EXPECT_LT(stats.netUtilization, stats.memUtilization);
}

TEST(SpmmSim, DeterministicAcrossRuns)
{
    graph::Csr csr = testGraph(8, 2000);
    PiumaConfig cfg = smallConfig(2);
    const auto a = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma);
    const auto b = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma);
    EXPECT_DOUBLE_EQ(a.makespanNs, b.makespanNs);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.dmaDescriptors, b.dmaDescriptors);
}

TEST(SpmmSim, DescriptorCountMatchesWorkload)
{
    // One ReadMulAcc per edge plus one WriteRow per row-visit.
    graph::Csr csr = testGraph(8, 2000);
    PiumaConfig cfg = smallConfig(2);
    const auto stats = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma);
    EXPECT_GE(stats.dmaDescriptors, csr.numEdges() + csr.numVertices());
    EXPECT_LE(stats.dmaDescriptors, csr.numEdges() + csr.numVertices() +
                                        cfg.totalThreads());
}

TEST(NodeModel, PeakDenseReflectsScalarPipelines)
{
    PiumaConfig cfg = PiumaConfig::node();
    const NodeModelParams params;
    // 256 cores x 4 MTPs x 1 GHz x denseFlopPerMtpCycle: a few
    // TFLOP/s at best — far below a GPU's dense throughput, the
    // paper's reason dense dominates PIUMA at K=256.
    EXPECT_DOUBLE_EQ(peakDenseGflops(cfg),
                     256.0 * 4.0 * params.denseFlopPerMtpCycle);
    EXPECT_LT(peakDenseGflops(cfg), 19500.0 * 0.5);
}

TEST(NodeModel, SpmmTimeTracksAnalyticalBound)
{
    PiumaConfig cfg = PiumaConfig::node();
    model::SpmmWorkload w{1u << 20, 1u << 24, 128};
    NodeModelParams params;
    const double t = spmmTimeNs(cfg, w, params);
    const double bw = cfg.aggregateBandwidth();
    const auto est = model::estimateSpmm(w, bw, bw);
    EXPECT_GT(t, est.timeNs);
    EXPECT_LT(t, est.timeNs / params.spmmEfficiency * 1.01 +
                     params.kernelLaunchOverheadNs * 1.01);
}

TEST(NodeModel, DenseBecomesComputeBoundAtLargeK)
{
    PiumaConfig cfg = PiumaConfig::node();
    // At K=256 dense time should be compute-limited (scalar MACs),
    // i.e. much larger than the pure streaming time.
    const uint64_t v = 1u << 22;
    const double t = denseMmTimeNs(cfg, v, 256, 256);
    const double stream_ns =
        static_cast<double>(v) * (256 + 256) * 4.0 /
        cfg.aggregateBandwidth();
    EXPECT_GT(t, 5.0 * stream_ns);
}

} // namespace

// ------------------------------------------- extensions & ablations

#include "piuma/walk_programs.hpp"

namespace {

using namespace pgcn;
using namespace pgcn::piuma;

graph::Csr
walkGraph()
{
    static graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(9, 4000, graph::rmatSkewed(), 31));
    return csr;
}

TEST(RandomWalk, CompletesAllSteps)
{
    PiumaConfig cfg;
    cfg.numCores = 2;
    const auto s = simulateRandomWalk(walkGraph(), 256, 8, cfg);
    EXPECT_EQ(s.totalSteps, 256u * 8u);
    EXPECT_GT(s.stepsPerNs, 0.0);
    EXPECT_GT(s.avgStepLatencyNs, 2.0 * cfg.dramLatencyNs);
}

TEST(RandomWalk, Deterministic)
{
    PiumaConfig cfg;
    cfg.numCores = 2;
    const auto a = simulateRandomWalk(walkGraph(), 128, 8, cfg, 5);
    const auto b = simulateRandomWalk(walkGraph(), 128, 8, cfg, 5);
    EXPECT_DOUBLE_EQ(a.makespanNs, b.makespanNs);
    EXPECT_EQ(a.simEvents, b.simEvents);
}

TEST(RandomWalk, ThroughputScalesWithThreads)
{
    // The latency-bound kernel: throughput ~ concurrent walkers.
    graph::Csr csr = walkGraph();
    PiumaConfig one;
    one.numCores = 2;
    one.threadsPerMtp = 1;
    PiumaConfig sixteen = one;
    sixteen.threadsPerMtp = 16;
    const auto s1 = simulateRandomWalk(csr, 2048, 8, one);
    const auto s16 = simulateRandomWalk(csr, 2048, 8, sixteen);
    EXPECT_GT(s16.stepsPerNs / s1.stepsPerNs, 4.0);
}

TEST(RandomWalk, LatencyBoundNotBandwidthBound)
{
    // Doubling DRAM latency should hurt a few-walker run almost
    // proportionally; doubling bandwidth should barely help.
    graph::Csr csr = walkGraph();
    PiumaConfig cfg;
    cfg.numCores = 2;
    cfg.threadsPerMtp = 1;
    const auto base = simulateRandomWalk(csr, 512, 8, cfg);
    PiumaConfig slow = cfg;
    slow.dramLatencyScale = 2.0;
    const auto lat = simulateRandomWalk(csr, 512, 8, slow);
    PiumaConfig wide = cfg;
    wide.dramBandwidthScale = 2.0;
    const auto bw = simulateRandomWalk(csr, 512, 8, wide);
    EXPECT_GT(lat.makespanNs / base.makespanNs, 1.4);
    EXPECT_LT(std::abs(bw.makespanNs / base.makespanNs - 1.0), 0.1);
}

TEST(DgasAblation, InterleaveNeverSlowerOnSkewedGraphs)
{
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(11, 40000, graph::rmatSkewed(), 77));
    PiumaConfig cfg;
    cfg.numCores = 8;
    const auto striped = simulateSpmm(csr, 64, cfg, SpmmAlgorithm::Dma);
    cfg.dgasFineInterleave = false;
    const auto pinned = simulateSpmm(csr, 64, cfg, SpmmAlgorithm::Dma);
    EXPECT_LE(striped.makespanNs, pinned.makespanNs * 1.02);
}

TEST(DgasAblation, RemoteFractionCountersAreConsistent)
{
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(9, 8000, graph::rmatSkewed(), 21));
    PiumaConfig cfg;
    cfg.numCores = 8;
    const auto s = simulateSpmm(csr, 32, cfg, SpmmAlgorithm::Dma);
    EXPECT_GT(s.memAccesses, 0u);
    EXPECT_LE(s.memRemoteAccesses, s.memAccesses);
    EXPECT_GE(s.remoteAccessFraction, 0.0);
    EXPECT_LE(s.remoteAccessFraction, 1.0);
    EXPECT_GE(s.maxSliceBytesFraction, 1.0);
    // With fine interleave striping everything across 8 slices, almost
    // every access lands remote regardless of vertex order.
    EXPECT_GT(s.remoteAccessFraction, 0.7);
}

TEST(DgasAblation, BlockedPlacementRewardsIslandizedOrder)
{
    // The locality story of the reorder sweeps, end to end on the DES:
    // with blocked row placement and interleave off, an islandized or
    // RCM relabeling keeps neighbourhoods on their home slice and the
    // remote-access fraction drops well below a shuffled relabeling of
    // the same graph. Hashed placement (the default) must stay
    // order-blind.
    graph::Csr base = graph::normalizedAdjacency(
        graph::generateRmat(10, 20000, graph::rmatSkewed(), 5));
    const graph::Csr shuffled =
        graph::shuffleOrder(base.numVertices(), 99).applyToCsr(base);
    const graph::Csr islandized =
        graph::islandOrder(base, base.numVertices() / 8)
            .perm.applyToCsr(base);
    const graph::Csr rcm = graph::rcmOrder(shuffled).applyToCsr(shuffled);

    PiumaConfig cfg;
    cfg.numCores = 8;
    cfg.rowPlacement = RowPlacement::Blocked;
    cfg.dgasFineInterleave = false;
    const auto shuf =
        simulateSpmm(shuffled, 32, cfg, SpmmAlgorithm::Dma);
    const auto isl =
        simulateSpmm(islandized, 32, cfg, SpmmAlgorithm::Dma);
    const auto r = simulateSpmm(rcm, 32, cfg, SpmmAlgorithm::Dma);
    // RMAT is expander-like, so most islands still have many cut
    // edges; the drop is real but modest. Real-world graphs with
    // community structure separate further.
    EXPECT_LT(isl.remoteAccessFraction,
              shuf.remoteAccessFraction * 0.95);
    EXPECT_LT(r.remoteAccessFraction, shuf.remoteAccessFraction * 0.95);

    // Hashed placement scatters rows independent of their ids, so the
    // relabelings all look statistically identical to it.
    PiumaConfig hashed;
    hashed.numCores = 8;
    hashed.dgasFineInterleave = false;
    const auto h_shuf =
        simulateSpmm(shuffled, 32, hashed, SpmmAlgorithm::Dma);
    const auto h_isl =
        simulateSpmm(islandized, 32, hashed, SpmmAlgorithm::Dma);
    EXPECT_NEAR(h_isl.remoteAccessFraction,
                h_shuf.remoteAccessFraction, 0.05);
    const auto h_rcm = simulateSpmm(rcm, 32, hashed, SpmmAlgorithm::Dma);
    EXPECT_NEAR(h_rcm.remoteAccessFraction,
                h_shuf.remoteAccessFraction, 0.05);
}

TEST(NodeModelExt, DenseAcceleratorCutsDenseTime)
{
    PiumaConfig cfg = PiumaConfig::node();
    NodeModelParams scalar;
    NodeModelParams accel;
    accel.denseAcceleratorGflops = 32000.0;
    const double slow = denseMmTimeNs(cfg, 1u << 22, 256, 256, scalar);
    const double fast = denseMmTimeNs(cfg, 1u << 22, 256, 256, accel);
    EXPECT_GT(slow / fast, 3.0);
}

TEST(NodeModelExt, AcceleratorStillBandwidthBoundEventually)
{
    // An absurdly fast accelerator cannot beat the streaming time.
    PiumaConfig cfg = PiumaConfig::node();
    NodeModelParams accel;
    accel.denseAcceleratorGflops = 1e9;
    const uint64_t v = 1u << 22;
    const double t = denseMmTimeNs(cfg, v, 256, 256, accel);
    const double stream =
        static_cast<double>(v) * (256 + 256) * 4.0 /
        cfg.aggregateBandwidth();
    EXPECT_GE(t, stream);
}

TEST(NodeModelExt, FusionSavingsPositiveAndBounded)
{
    PiumaConfig cfg = PiumaConfig::node();
    const double saved = fusionSavingsNs(cfg, 1u << 20, 128);
    EXPECT_GT(saved, 0.0);
    // Cannot save more than the full glue+write traffic round trip.
    const double spmm = spmmTimeNs(
        cfg, model::SpmmWorkload{1u << 20, 1u << 24, 128});
    EXPECT_LT(saved, spmm);
}

TEST(RandomWalk, RejectsEmptyGraphThrows)
{
    PiumaConfig cfg;
    cfg.numCores = 1;
    graph::Coo empty(0);
    graph::Csr csr(empty);
    EXPECT_THROW(simulateRandomWalk(csr, 1, 1, cfg), pgcn::ShapeError);
}

TEST(PiumaConfig, InvalidConfigThrows)
{
    PiumaConfig cfg;
    cfg.numCores = 0;
    EXPECT_THROW(cfg.validate(), pgcn::ConfigError);
}

} // namespace

// --------------------------------------------------- dense-MM on DES

#include "piuma/dense_programs.hpp"

namespace {

using namespace pgcn;
using namespace pgcn::piuma;

TEST(DenseSim, LargeKIsIssueBoundNearScalarPeak)
{
    // At K=256 the MAC loop dominates: throughput approaches the
    // scalar-pipeline peak (flop per MTP-cycle = 2 FLOP/MAC /
    // issueCostPerMac) and the pipelines saturate.
    PiumaConfig cfg;
    cfg.numCores = 2;
    const auto s = simulateDenseMm(1u << 12, 256, 256, cfg);
    const double peak_gflops = cfg.numCores * cfg.mtpsPerCore *
                               cfg.clockGhz * 2.0 /
                               cfg.issueCostPerMac;
    EXPECT_GT(s.gflops, 0.8 * peak_gflops);
    EXPECT_LE(s.gflops, 1.02 * peak_gflops);
    EXPECT_GT(s.issueUtilization, 0.8);
}

TEST(DenseSim, TinyKIsBandwidthBound)
{
    // K_in = K_out = 2 with quartered DRAM bandwidth: 8 FLOP per 16
    // streamed bytes; the memory system saturates while the scalar
    // pipelines idle — the opposite regime of K=256.
    PiumaConfig cfg;
    cfg.numCores = 2;
    cfg.dramBandwidthScale = 0.25;
    const auto s = simulateDenseMm(1u << 14, 2, 2, cfg);
    EXPECT_GT(s.memUtilization, 0.8);
    EXPECT_LT(s.issueUtilization, 0.5);
    EXPECT_GT(s.memUtilization, s.issueUtilization);
}

TEST(DenseSim, ScalesWithCores)
{
    PiumaConfig one;
    one.numCores = 1;
    PiumaConfig four;
    four.numCores = 4;
    const auto s1 = simulateDenseMm(1u << 12, 128, 128, one);
    const auto s4 = simulateDenseMm(1u << 12, 128, 128, four);
    EXPECT_GT(s4.gflops / s1.gflops, 3.0);
}

TEST(DenseSim, MatchesNodeModelWithinFactor)
{
    // The DES and the analytical node model should agree on the
    // compute-bound regime within a modest factor.
    PiumaConfig cfg;
    cfg.numCores = 4;
    const uint64_t v = 1u << 12;
    const auto s = simulateDenseMm(v, 256, 256, cfg);
    const double modeled = denseMmTimeNs(cfg, v, 256, 256);
    const double ratio = s.makespanNs / modeled;
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
}

TEST(DenseSim, Deterministic)
{
    PiumaConfig cfg;
    cfg.numCores = 2;
    const auto a = simulateDenseMm(1u << 10, 64, 64, cfg);
    const auto b = simulateDenseMm(1u << 10, 64, 64, cfg);
    EXPECT_DOUBLE_EQ(a.makespanNs, b.makespanNs);
    EXPECT_EQ(a.simEvents, b.simEvents);
}

} // namespace

// ------------------------------------- parameterised DES properties

namespace {

using namespace pgcn;
using namespace pgcn::piuma;

/** (cores, K): the DMA SpMM must stay within sane bounds of the
 * bandwidth model everywhere in the configuration plane, and never
 * beat the bound. */
class DmaModelBounds
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(DmaModelBounds, WithinModelEnvelope)
{
    const auto [cores, k] = GetParam();
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(11, 40000, graph::rmatSkewed(), 3));
    PiumaConfig cfg;
    cfg.numCores = cores;
    const auto stats = simulateSpmm(csr, k, cfg, SpmmAlgorithm::Dma);
    const double bw = cfg.aggregateBandwidth();
    const auto est = model::estimateSpmm(
        model::SpmmWorkload{csr.numVertices(), csr.numEdges(), k}, bw,
        bw);
    const double fraction = est.timeNs / stats.makespanNs;
    EXPECT_GT(fraction, 0.5) << "cores=" << cores << " K=" << k;
    EXPECT_LE(fraction, 1.05) << "cores=" << cores << " K=" << k;
    // Conservation: FLOP count is exact regardless of timing.
    EXPECT_DOUBLE_EQ(stats.flop, est.flop);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigPlane, DmaModelBounds,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(8u, 32u, 128u)));

/** Makespan must be monotone non-increasing in core count. */
TEST(SpmmSimProperty, MakespanMonotoneInCores)
{
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(10, 20000, graph::rmatSkewed(), 8));
    double prev = 1e300;
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        PiumaConfig cfg;
        cfg.numCores = cores;
        const auto s = simulateSpmm(csr, 32, cfg, SpmmAlgorithm::Dma);
        EXPECT_LT(s.makespanNs, prev) << cores << " cores";
        prev = s.makespanNs;
    }
}

/** Makespan must be monotone non-decreasing in DRAM latency. */
TEST(SpmmSimProperty, MakespanMonotoneInLatency)
{
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(10, 20000, graph::rmatSkewed(), 8));
    double prev = 0.0;
    for (double scale : {1.0, 4.0, 16.0}) {
        PiumaConfig cfg;
        cfg.numCores = 2;
        cfg.threadsPerMtp = 2;
        cfg.dramLatencyScale = scale;
        const auto s = simulateSpmm(csr, 8, cfg, SpmmAlgorithm::Dma);
        EXPECT_GE(s.makespanNs, prev) << "latency x" << scale;
        prev = s.makespanNs;
    }
}

/** K=1 (degenerate single-column features) must still be exact. */
TEST(SpmmSimProperty, SingleColumnFeatures)
{
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(8, 2000, graph::rmatSkewed(), 8));
    PiumaConfig cfg;
    cfg.numCores = 2;
    const auto s = simulateSpmm(csr, 1, cfg, SpmmAlgorithm::Dma);
    EXPECT_DOUBLE_EQ(s.flop, 2.0 * static_cast<double>(csr.numEdges()));
    EXPECT_GT(s.makespanNs, 0.0);
}

/** A single-vertex graph (one self loop) is the smallest valid run. */
TEST(SpmmSimProperty, SingleVertexGraph)
{
    graph::Coo coo(1);
    graph::Csr csr = graph::normalizedAdjacency(coo);
    ASSERT_EQ(csr.numEdges(), 1u);
    PiumaConfig cfg;
    cfg.numCores = 1;
    for (auto alg : {SpmmAlgorithm::Dma, SpmmAlgorithm::LoopUnrolled}) {
        const auto s = simulateSpmm(csr, 4, cfg, alg);
        EXPECT_GT(s.makespanNs, 0.0) << spmmAlgorithmName(alg);
    }
}

/** Loop-unrolled traffic also covers the analytical feature bytes. */
TEST(SpmmSimProperty, LoopUnrolledTrafficCoversModel)
{
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(9, 4000, graph::rmatSkewed(), 9));
    PiumaConfig cfg;
    cfg.numCores = 2;
    const auto s = simulateSpmm(csr, 32, cfg, SpmmAlgorithm::LoopUnrolled);
    const auto est = model::estimateSpmm(
        model::SpmmWorkload{csr.numVertices(), csr.numEdges(), 32}, 1.0,
        1.0);
    EXPECT_GE(s.bytesRead, est.bytesFeature);
    EXPECT_GE(s.bytesWritten, est.bytesWrite);
}

} // namespace

// --------------------------------------------------- DES GCN layers

#include "piuma/gcn_sim.hpp"

namespace {

using namespace pgcn;
using namespace pgcn::piuma;

TEST(GcnSim, ThreeLayerBreakdownAccountsAllTime)
{
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(9, 4000, graph::rmatSkewed(), 61));
    PiumaConfig cfg;
    cfg.numCores = 2;
    const std::vector<GcnSimLayer> layers{{64, 32}, {32, 32}, {32, 8}};
    const auto r = simulateGcn(csr, layers, cfg);
    ASSERT_EQ(r.spmmLayers.size(), 3u);
    ASSERT_EQ(r.denseLayers.size(), 3u);
    EXPECT_DOUBLE_EQ(r.totalNs, r.spmmNs + r.denseNs);
    EXPECT_NEAR(r.spmmFraction() + r.denseFraction(), 1.0, 1e-12);
    EXPECT_GT(r.spmmNs, 0.0);
    EXPECT_GT(r.denseNs, 0.0);
}

TEST(GcnSim, DenseShareGrowsWithEmbeddingDim)
{
    // The Fig. 10 mechanism, reproduced end-to-end on the simulator
    // instead of the analytical node model.
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(9, 4000, graph::rmatSkewed(), 62));
    PiumaConfig cfg;
    cfg.numCores = 2;
    const auto small =
        simulateGcn(csr, {{64, 8}, {8, 8}, {8, 8}}, cfg);
    const auto large =
        simulateGcn(csr, {{64, 256}, {256, 256}, {256, 256}}, cfg);
    EXPECT_GT(large.denseFraction(), small.denseFraction());
    EXPECT_GT(large.denseFraction(), 0.5);
}

TEST(GcnSim, Deterministic)
{
    graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(8, 2000, graph::rmatSkewed(), 63));
    PiumaConfig cfg;
    cfg.numCores = 2;
    const std::vector<GcnSimLayer> layers{{16, 16}};
    const auto a = simulateGcn(csr, layers, cfg);
    const auto b = simulateGcn(csr, layers, cfg);
    EXPECT_DOUBLE_EQ(a.totalNs, b.totalNs);
}

// ---------------------------------------------------------------------------
// Differential: timing model vs functional kernels
//
// The simulator never touches feature data, so its work and traffic
// accounting could silently drift from what the real computation
// does. This suite walks a grid of random graphs and pins the
// simulated operation counts to the *functional* SpMM kernels in
// src/kernels executing the identical CSR: the MACs the reference
// kernel performs (counted by instrumenting its exact traversal) must
// equal the FLOP the simulator charges, and the simulated DRAM
// traffic must respect conservation and the compulsory-traffic floor
// of the same workload.

/**
 * MAC count of H_out = A * H_in on @p csr with K-wide features,
 * traversing rows/non-zeros exactly as kernels::spmmReference does.
 */
uint64_t
referenceMacCount(const graph::Csr &csr, uint64_t k)
{
    uint64_t macs = 0;
    for (graph::VertexId u = 0; u < csr.numVertices(); ++u)
        macs += static_cast<uint64_t>(csr.degree(u)) * k;
    return macs;
}

class SpmmDifferential
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool, unsigned>>
{
};

TEST_P(SpmmDifferential, SimCountsMatchFunctionalKernel)
{
    const auto [scale, skewed, k] = GetParam();
    const graph::Csr csr = graph::normalizedAdjacency(graph::generateRmat(
        scale, 6ull << scale,
        skewed ? graph::rmatSkewed() : graph::rmatUniform(),
        1000 + scale));

    // Functional ground truth: run the actual kernels on the same CSR
    // and check they agree with each other, so the MAC count below is
    // the count of a computation that demonstrably happened.
    tensor::DenseMatrix h_in(csr.numVertices(), k);
    h_in.fillRandom(7, 1.0f);
    tensor::DenseMatrix ref_out;
    kernels::spmmReference(csr, h_in, ref_out);
    parallel::ThreadPool pool(2);
    tensor::DenseMatrix par_out;
    kernels::spmmEdgeParallel(csr, h_in, par_out, pool);
    double max_diff = 0.0;
    for (graph::VertexId u = 0; u < csr.numVertices(); ++u)
        for (uint64_t c = 0; c < k; ++c)
            max_diff = std::max(
                max_diff, std::abs(static_cast<double>(
                              ref_out.at(u, c) - par_out.at(u, c))));
    EXPECT_LT(max_diff, 1e-4);

    const uint64_t macs = referenceMacCount(csr, k);
    EXPECT_EQ(macs, static_cast<uint64_t>(csr.numEdges()) * k);

    const model::SpmmEstimate est = model::estimateSpmm(
        {csr.numVertices(), csr.numEdges(), k},
        PiumaConfig{}.aggregateBandwidth(),
        PiumaConfig{}.aggregateBandwidth());

    for (const auto alg :
         {SpmmAlgorithm::LoopUnrolled, SpmmAlgorithm::Dma}) {
        const auto s = simulateSpmm(csr, static_cast<unsigned>(k),
                                    smallConfig(2), alg);
        // The simulator charges exactly the kernel's arithmetic:
        // 2 FLOP (multiply + add) per MAC, no more, no fewer.
        EXPECT_DOUBLE_EQ(s.flop, 2.0 * static_cast<double>(macs))
            << spmmAlgorithmName(alg);
        // Conservation: every byte a slice served is a byte somebody
        // read or wrote.
        EXPECT_NEAR(s.bytesServed, s.bytesRead + s.bytesWritten,
                    1e-6 * s.bytesServed)
            << spmmAlgorithmName(alg);
        // Compulsory-traffic floor (paper Eqs. 1-3): the simulated
        // run cannot read fewer bytes than the no-reuse feature
        // traffic of the same workload, nor write less than one
        // K-vector per row the kernel actually produces (empty rows
        // are never touched by the edge-parallel traversal).
        uint64_t nonempty = 0;
        for (graph::VertexId u = 0; u < csr.numVertices(); ++u)
            nonempty += csr.degree(u) > 0 ? 1 : 0;
        EXPECT_GE(s.bytesRead, est.bytesFeature)
            << spmmAlgorithmName(alg);
        EXPECT_GE(s.bytesWritten,
                  static_cast<double>(nonempty * k) * 4.0)
            << spmmAlgorithmName(alg);
        EXPECT_GT(s.makespanNs, 0.0);
        // Throughput is derived, not independently accumulated.
        EXPECT_NEAR(s.gflops, s.flop / s.makespanNs,
                    1e-9 * s.gflops);
    }
}

INSTANTIATE_TEST_SUITE_P(
    CsrGrid, SpmmDifferential,
    ::testing::Combine(::testing::Values(6u, 8u),
                       ::testing::Bool(),
                       ::testing::Values(8u, 64u)),
    [](const auto &info) {
        return "scale" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_skewed_k" : "_uniform_k") +
               std::to_string(std::get<2>(info.param));
    });

} // namespace
