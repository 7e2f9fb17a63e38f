/**
 * @file
 * Determinism regression tests for the discrete-event core.
 *
 * Two guarantees are pinned here:
 *
 *  1. Run-to-run determinism: simulating the same workload twice in
 *     one process yields bit-identical simulated times, event counts,
 *     and stall breakdowns (the engine has no hidden global state).
 *
 *  2. Golden values: simulated results captured from the seed
 *     implementation (single std::priority_queue of std::function
 *     events). Any event-engine change — arenas, now queue, calendar
 *     wheel, callback slab, compiler-flag changes — must
 *     reproduce these bits exactly, proving it altered wall-clock
 *     behaviour only, never simulated results. If a change breaks
 *     these on purpose (a *model* change), re-derive the constants
 *     from the previous commit and say so in the commit message.
 */
#include <gtest/gtest.h>

#include "piuma/dense_programs.hpp"
#include "piuma/spmm_programs.hpp"
#include "piuma/walk_programs.hpp"
#include "sim/fault.hpp"
#include "test_fixtures.hpp"

namespace {

using namespace pgcn;
using namespace pgcn::piuma;
using pgcn_test::goldenGraph;
using pgcn_test::twoCores;

/**
 * Every fault class at once, in the survivable regime: jittered
 * latencies, service rates and DMA overheads, 1% drops of DRAM
 * transactions, network packets and DMA descriptors recovered within
 * 8 retries, and a 5% stuck-core hazard. Seed 17 stalls 11 of the
 * 128 threads and retries on every program, so these goldens pin the
 * recovery paths, not just the clean walk.
 */
sim::FaultConfig
survivableFaults()
{
    sim::FaultConfig fc;
    fc.seed = 17;
    fc.dramLatencyJitter = 0.3;
    fc.serviceRateJitter = 0.1;
    fc.networkLatencyJitter = 0.2;
    fc.dmaOverheadJitter = 0.2;
    fc.dramDropRate = 0.01;
    fc.netDropRate = 0.01;
    fc.dmaDropRate = 0.01;
    fc.stuckCoreRate = 0.05;
    fc.maxRetries = 8;
    return fc;
}

TEST(Determinism, SpmmRunTwiceBitIdentical)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    const PiumaConfig cfg = twoCores();
    const SpmmRunStats a = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma);
    const SpmmRunStats b = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma);

    EXPECT_EQ(a.makespanNs, b.makespanNs);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.dmaDescriptors, b.dmaDescriptors);
    EXPECT_EQ(a.nnzReads, b.nnzReads);
    EXPECT_EQ(a.nnzStallNs, b.nnzStallNs);
    EXPECT_EQ(a.rowOffsetStallNs, b.rowOffsetStallNs);
    EXPECT_EQ(a.featureStallNs, b.featureStallNs);
    EXPECT_EQ(a.dmaQueueStallNs, b.dmaQueueStallNs);
    EXPECT_EQ(a.issueNs, b.issueNs);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
}

// Golden 1: the DMA SpMM program. RMAT scale 8 / 2000 edges / seed 99,
// K=16, 2 cores. Values captured from the seed engine at %.17g — 17
// significant digits round-trip an IEEE double exactly, so
// EXPECT_DOUBLE_EQ means bit-identical.
TEST(Determinism, GoldenDmaSpmm)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    const SpmmRunStats s =
        simulateSpmm(csr, 16, twoCores(), SpmmAlgorithm::Dma);

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

TEST(Determinism, GoldenDmaSpmmFaulted)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    sim::FaultInjector faults(survivableFaults());
    sim::SimControls controls;
    controls.faults = &faults;
    const SpmmRunStats s = simulateSpmm(csr, 16, twoCores(),
                                        SpmmAlgorithm::Dma, nullptr,
                                        &controls);

    EXPECT_DOUBLE_EQ(s.makespanNs, 14491.192713119259);
    EXPECT_EQ(s.simEvents, 25934u);
    EXPECT_EQ(s.dmaDescriptors, 3142u);
    EXPECT_EQ(s.retries, 163u);
    EXPECT_EQ(s.timeoutsFired, 174u);
    EXPECT_EQ(s.stuckResets, 11u);
    EXPECT_DOUBLE_EQ(s.recoveryNs, 208000.0);
    EXPECT_DOUBLE_EQ(s.retriedBytes, 4992.0);
    EXPECT_DOUBLE_EQ(s.nnzStallNs, 148111.61626283862);
    EXPECT_DOUBLE_EQ(s.rowOffsetStallNs, 266588.34000963846);
    EXPECT_DOUBLE_EQ(s.dmaQueueStallNs, 886588.48075461364);
    EXPECT_DOUBLE_EQ(s.stallMemoryNs, 179578.3767096168);
    EXPECT_DOUBLE_EQ(s.stallNetworkNs, 219421.57956286031);
    EXPECT_DOUBLE_EQ(s.bytesRead, 274048.0);
    EXPECT_DOUBLE_EQ(s.bytesWritten, 23936.0);
}

// Golden 2: the loop-unrolled SpMM program, same graph, K=8.
TEST(Determinism, GoldenLoopUnrolledSpmm)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    const SpmmRunStats s =
        simulateSpmm(csr, 8, twoCores(), SpmmAlgorithm::LoopUnrolled);

    EXPECT_DOUBLE_EQ(s.makespanNs, 7327.1428571425176);
    EXPECT_EQ(s.simEvents, 16987u);
    EXPECT_DOUBLE_EQ(s.nnzStallNs, 76212.714285708993);
    EXPECT_DOUBLE_EQ(s.featureStallNs, 464774.14285710535);
}

TEST(Determinism, GoldenLoopUnrolledSpmmFaulted)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    sim::FaultInjector faults(survivableFaults());
    sim::SimControls controls;
    controls.faults = &faults;
    const SpmmRunStats s = simulateSpmm(csr, 8, twoCores(),
                                        SpmmAlgorithm::LoopUnrolled,
                                        nullptr, &controls);

    EXPECT_DOUBLE_EQ(s.makespanNs, 14126.546137322017);
    EXPECT_EQ(s.simEvents, 22400u);
    EXPECT_EQ(s.nnzReads, 458u);
    EXPECT_EQ(s.retries, 117u);
    EXPECT_EQ(s.timeoutsFired, 128u);
    EXPECT_EQ(s.stuckResets, 11u);
    EXPECT_DOUBLE_EQ(s.recoveryNs, 180400.0);
    EXPECT_DOUBLE_EQ(s.retriedBytes, 2928.0);
    EXPECT_DOUBLE_EQ(s.nnzStallNs, 65649.782036060365);
    EXPECT_DOUBLE_EQ(s.rowOffsetStallNs, 253635.11670732746);
    EXPECT_DOUBLE_EQ(s.featureStallNs, 420289.48544591601);
    EXPECT_DOUBLE_EQ(s.issueNs, 23066.059887398063);
    EXPECT_DOUBLE_EQ(s.stallMemoryNs, 322825.7161145166);
    EXPECT_DOUBLE_EQ(s.stallNetworkNs, 352348.66807478695);
    EXPECT_DOUBLE_EQ(s.bytesRead, 185472.0);
    EXPECT_DOUBLE_EQ(s.bytesWritten, 11968.0);
}

// Blocked row placement without fine DGAS interleave: owner-computes
// edge ranges, and every feature line of a row on its placement slice.
TEST(Determinism, GoldenLoopUnrolledSpmmBlocked)
{
    const graph::Csr csr = goldenGraph(8, 2000, 99);
    PiumaConfig cfg = twoCores();
    cfg.rowPlacement = RowPlacement::Blocked;
    cfg.dgasFineInterleave = false;
    const SpmmRunStats s =
        simulateSpmm(csr, 8, cfg, SpmmAlgorithm::LoopUnrolled);

    EXPECT_DOUBLE_EQ(s.makespanNs, 8453.571428571966);
    EXPECT_EQ(s.simEvents, 13475u);
    EXPECT_EQ(s.nnzReads, 456u);
    EXPECT_EQ(s.memRemoteAccesses, 1783u);
    EXPECT_DOUBLE_EQ(s.nnzStallNs, 82460.142857144674);
    EXPECT_DOUBLE_EQ(s.rowOffsetStallNs, 290045.14285714494);
    EXPECT_DOUBLE_EQ(s.featureStallNs, 446864.28571432608);
    EXPECT_DOUBLE_EQ(s.issueNs, 24552.857142854351);
    EXPECT_DOUBLE_EQ(s.bytesRead, 185216.0);
    EXPECT_DOUBLE_EQ(s.bytesWritten, 11776.0);
}

// Golden 3: the random-walk program (latency-bound pointer chasing).
// RMAT scale 9 / 4000 edges / seed 31; 128 walks of 8 steps, seed 5.
TEST(Determinism, GoldenRandomWalk)
{
    const graph::Csr csr = goldenGraph(9, 4000, 31);
    const WalkRunStats s = simulateRandomWalk(csr, 128, 8, twoCores(), 5);

    EXPECT_DOUBLE_EQ(s.makespanNs, 1499.5714285714287);
    EXPECT_EQ(s.simEvents, 5113u);
    EXPECT_EQ(s.totalSteps, 1024u);
}

// Golden 4: the dense update program, 1024 x 64 x 64.
TEST(Determinism, GoldenDenseMm)
{
    const DenseRunStats s = simulateDenseMm(1u << 10, 64, 64, twoCores());

    EXPECT_DOUBLE_EQ(s.makespanNs, 263473.14285714284);
    EXPECT_EQ(s.simEvents, 4096u);
}

TEST(Determinism, GoldenDenseMmFaulted)
{
    sim::FaultInjector faults(survivableFaults());
    sim::SimControls controls;
    controls.faults = &faults;
    const DenseRunStats s = simulateDenseMm(1u << 10, 64, 64, twoCores(),
                                            nullptr, &controls);

    EXPECT_DOUBLE_EQ(s.makespanNs, 263607.69560268521);
    EXPECT_EQ(s.simEvents, 7250u);
    EXPECT_EQ(s.retries, 71u);
    EXPECT_EQ(s.timeoutsFired, 82u);
    EXPECT_DOUBLE_EQ(s.recoveryNs, 152600.0);
    EXPECT_DOUBLE_EQ(s.goodputBytes, 524288.0);
}

} // namespace
