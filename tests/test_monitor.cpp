/**
 * @file
 * Tests for the observability layer: bucketed timelines that fold on
 * their own spans, the MonitorHub stall-window/occupancy roll-up, the
 * engine's critical-path tracking on hand-built event graphs, and the
 * two contracts the feature rests on — attaching a monitor never
 * changes simulated results (bit-identity against the determinism
 * goldens), and the stall-attribution taxonomy sums exactly to the
 * per-site stall counters.
 */
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "piuma/dense_programs.hpp"
#include "piuma/spmm_programs.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/monitor.hpp"
#include "test_fixtures.hpp"

namespace {

using namespace pgcn;
using namespace pgcn::sim;
using pgcn_test::goldenGraph;
using pgcn_test::twoCores;

// ---------------------------------------------------------- Timeline

TEST(Timeline, AccumulatesSpansIntoBuckets)
{
    Timeline t(64, 64.0);
    t.addSpan(0.0, 10.0);
    t.addSpan(70.0, 90.0);
    EXPECT_DOUBLE_EQ(t.total(), 30.0);
    EXPECT_DOUBLE_EQ(t.bins()[0], 10.0);
    EXPECT_DOUBLE_EQ(t.bins()[1], 20.0);
}

TEST(Timeline, SpanStraddlingBucketsSplits)
{
    Timeline t(64, 64.0);
    t.addSpan(60.0, 70.0); // 4 ns in bucket 0, 6 ns in bucket 1
    EXPECT_DOUBLE_EQ(t.bins()[0], 4.0);
    EXPECT_DOUBLE_EQ(t.bins()[1], 6.0);
}

TEST(Timeline, EmptyAndNegativeSpansIgnored)
{
    Timeline t(64, 64.0);
    t.addSpan(10.0, 10.0);
    t.addSpan(10.0, 5.0);
    EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(Timeline, FoldsWhenSpanPassesCapacity)
{
    Timeline t(64, 64.0);      // capacity 64 * 64 = 4096 ns
    t.addSpan(0.0, 64.0);      // fills bucket 0
    t.addSpan(8000.0, 8010.0); // needs >= 8192 ns of capacity
    EXPECT_DOUBLE_EQ(t.width(), 128.0); // one fold
    EXPECT_DOUBLE_EQ(t.total(), 74.0);
    EXPECT_DOUBLE_EQ(t.bins()[0], 64.0); // survived the fold
    EXPECT_DOUBLE_EQ(t.bins()[62], 10.0); // 8000 / 128 = 62
}

// A fold on one timeline leaves its siblings alone; the hub catches
// them up to the widest width at report time, so the CSV rows of a
// lagging timeline come out at the shared width with its spans folded.
TEST(Timeline, SiblingCatchesUpLazilyAfterFold)
{
    MonitorHub hub;
    hub.beginRun(1);
    Timeline &a = *hub.issueTimeline(0);
    Timeline &b = *hub.sliceTimeline(0);
    b.addSpan(0.0, 64.0);
    b.addSpan(64.0, 100.0);
    a.addSpan(8000.0, 8010.0); // a folds once; b keeps its width
    EXPECT_DOUBLE_EQ(a.width(), 128.0);
    EXPECT_DOUBLE_EQ(b.width(), 64.0);
    EXPECT_DOUBLE_EQ(b.bins()[1], 36.0);

    std::ostringstream os;
    hub.writeCsv(os, 8010.0, "");
    EXPECT_DOUBLE_EQ(b.width(), 128.0);
    EXPECT_DOUBLE_EQ(b.bins()[0], 100.0); // buckets 0 and 1 folded
    EXPECT_DOUBLE_EQ(b.bins()[1], 0.0);
    EXPECT_DOUBLE_EQ(b.total(), 100.0);
    EXPECT_NE(os.str().find("slice,0,0,0,128,100\n"), std::string::npos);
    EXPECT_NE(os.str().find("issue,0,62,7936,128,10\n"), std::string::npos);
}

// -------------------------------------------------------- MonitorHub

TEST(MonitorHub, ReportRollsUpBusyAndStallSpans)
{
    MonitorHub hub;
    hub.beginRun(1);
    hub.issueTimeline(0)->addSpan(0.0, 10.0);
    hub.issueTimeline(0)->addSpan(20.0, 30.0);
    hub.beginWait(0, 0.0);
    hub.endWait(0, StallCause::MemoryWait, 0.0, 40.0);

    OccupancyReport rep = hub.report(100.0);
    ASSERT_EQ(rep.cores.size(), 1u);
    EXPECT_DOUBLE_EQ(rep.cores[0].issueBusyNs, 20.0);
    EXPECT_DOUBLE_EQ(rep.cores[0].stallMemNs, 40.0);
    EXPECT_DOUBLE_EQ(rep.cores[0].windowNs, 40.0);
    EXPECT_DOUBLE_EQ(rep.cores[0].coveredNs, 20.0);
    EXPECT_DOUBLE_EQ(rep.latencyHidingEffectiveness, 0.5);
    EXPECT_DOUBLE_EQ(rep.exposedStallNs, 20.0);
}

TEST(MonitorHub, StallWindowIsUnionOfOverlappingWaits)
{
    MonitorHub hub;
    hub.beginRun(1);
    hub.beginWait(0, 10.0);
    hub.beginWait(0, 15.0); // nested: window stays open
    hub.endWait(0, StallCause::MemoryWait, 10.0, 20.0);
    hub.endWait(0, StallCause::NetworkWait, 15.0, 30.0);

    OccupancyReport rep = hub.report(100.0);
    EXPECT_DOUBLE_EQ(rep.cores[0].stallMemNs, 10.0);
    EXPECT_DOUBLE_EQ(rep.cores[0].stallNetNs, 15.0);
    // The window is [10, 30): the union, not the 25 ns thread-sum.
    EXPECT_DOUBLE_EQ(rep.cores[0].windowNs, 20.0);
}

TEST(MonitorHub, NoStallsMeansPerfectHiding)
{
    MonitorHub hub;
    hub.beginRun(2);
    hub.issueTimeline(0)->addSpan(0.0, 50.0);
    OccupancyReport rep = hub.report(100.0);
    EXPECT_DOUBLE_EQ(rep.latencyHidingEffectiveness, 1.0);
    EXPECT_DOUBLE_EQ(rep.exposedStallNs, 0.0);
    EXPECT_DOUBLE_EQ(rep.cores[0].issueBusyNs, 50.0);
    EXPECT_DOUBLE_EQ(rep.cores[1].issueBusyNs, 0.0);
}

TEST(MonitorHub, OpenWaitClosedAtMakespan)
{
    MonitorHub hub;
    hub.beginRun(1);
    hub.beginWait(0, 60.0);
    // endWait never arrives (thread still parked at run end).
    OccupancyReport rep = hub.report(100.0);
    EXPECT_DOUBLE_EQ(rep.cores[0].windowNs, 40.0);
}

TEST(MonitorHub, CsvRowsAreSparseAndPrefixed)
{
    MonitorHub hub;
    hub.beginRun(1);
    hub.issueTimeline(0)->addSpan(0.0, 10.0);
    std::ostringstream os;
    hub.writeCsv(os, 100.0, "p,");
    const std::string text = os.str();
    EXPECT_NE(text.find("p,issue,0,0,0,64,10\n"), std::string::npos);
    // Only the one non-empty bucket row for the issue timeline.
    EXPECT_EQ(text.find("issue,0,1,"), std::string::npos);
}

// ------------------------------------------------------ CriticalPath

TEST(CriticalPath, EmptyRunHasNoPath)
{
    Engine engine;
    engine.run();
    EXPECT_EQ(engine.criticalPathEvents(), 0u);
}

TEST(CriticalPath, SerialChainDepthEqualsLength)
{
    Engine engine;
    std::function<void(int)> step = [&](int remaining) {
        if (remaining > 0)
            engine.schedule(1.0,
                            [&step, remaining] { step(remaining - 1); });
    };
    step(10);
    engine.run();
    EXPECT_EQ(engine.eventsProcessed(), 10u);
    EXPECT_EQ(engine.criticalPathEvents(), 10u);
}

TEST(CriticalPath, FanOutCountsAsTwoLevels)
{
    Engine engine;
    int fired = 0;
    engine.schedule(1.0, [&] {
        for (int i = 0; i < 8; ++i)
            engine.schedule(1.0, [&] { ++fired; });
    });
    engine.run();
    EXPECT_EQ(fired, 8);
    EXPECT_EQ(engine.eventsProcessed(), 9u);
    EXPECT_EQ(engine.criticalPathEvents(), 2u);
}

TEST(CriticalPath, DiamondJoinsAtDepthThree)
{
    // root -> {left, right} -> join (scheduled by whichever branch
    // arrives second, the DES analogue of a counter join).
    Engine engine;
    int arrived = 0;
    SimTime join_time = -1.0;
    const auto branch = [&] {
        if (++arrived == 2)
            engine.schedule(1.0, [&] { join_time = engine.now(); });
    };
    engine.schedule(1.0, [&] {
        engine.schedule(1.0, branch);
        engine.schedule(2.0, branch);
    });
    engine.run();
    EXPECT_DOUBLE_EQ(join_time, 4.0);
    EXPECT_EQ(engine.eventsProcessed(), 4u);
    EXPECT_EQ(engine.criticalPathEvents(), 3u);
}

TEST(CriticalPath, IndependentChainsDoNotExtendEachOther)
{
    // Two disjoint 5-event chains interleaved in time: the longest
    // dependency chain is still 5, whatever the dispatch interleave.
    Engine engine;
    std::function<void(int)> a = [&](int remaining) {
        if (remaining > 0)
            engine.schedule(3.0, [&a, remaining] { a(remaining - 1); });
    };
    std::function<void(int)> b = [&](int remaining) {
        if (remaining > 0)
            engine.schedule(5.0, [&b, remaining] { b(remaining - 1); });
    };
    a(5);
    b(5);
    engine.run();
    EXPECT_EQ(engine.eventsProcessed(), 10u);
    EXPECT_EQ(engine.criticalPathEvents(), 5u);
}

// --------------------------------------- monitors vs simulated result

TEST(MonitorBitIdentity, DmaGoldenUnchangedWithMonitorAttached)
{
    const graph::Csr csr = goldenGraph();
    const piuma::PiumaConfig cfg = twoCores();

    const piuma::SpmmRunStats plain =
        simulateSpmm(csr, 16, cfg, piuma::SpmmAlgorithm::Dma);

    MonitorHub hub;
    SimControls controls;
    controls.monitor = &hub;
    const piuma::SpmmRunStats monitored = simulateSpmm(
        csr, 16, cfg, piuma::SpmmAlgorithm::Dma, nullptr, &controls);

    // Same golden constants test_determinism pins for this workload:
    // the monitor observed the run without perturbing it.
    EXPECT_DOUBLE_EQ(plain.makespanNs, 10712.857142857198);
    EXPECT_DOUBLE_EQ(monitored.makespanNs, plain.makespanNs);
    EXPECT_EQ(plain.simEvents, 22697u);
    EXPECT_EQ(monitored.simEvents, plain.simEvents);
    EXPECT_EQ(monitored.dmaDescriptors, plain.dmaDescriptors);
    EXPECT_EQ(monitored.nnzStallNs, plain.nnzStallNs);
    EXPECT_EQ(monitored.rowOffsetStallNs, plain.rowOffsetStallNs);
    EXPECT_EQ(monitored.dmaQueueStallNs, plain.dmaQueueStallNs);
    EXPECT_EQ(monitored.stallMemoryNs, plain.stallMemoryNs);
    EXPECT_EQ(monitored.stallNetworkNs, plain.stallNetworkNs);
    EXPECT_EQ(monitored.criticalPathEvents, plain.criticalPathEvents);

    // Only the monitor-derived metrics may differ (off = -1 sentinel).
    EXPECT_GE(monitored.latencyHidingEffectiveness, 0.0);
    EXPECT_LE(monitored.latencyHidingEffectiveness, 1.0);
    EXPECT_GE(monitored.exposedStallNs, 0.0);
    EXPECT_DOUBLE_EQ(plain.latencyHidingEffectiveness, -1.0);
}

TEST(MonitorBitIdentity, LoopUnrolledGoldenUnchangedWithMonitor)
{
    const graph::Csr csr = goldenGraph();
    const piuma::PiumaConfig cfg = twoCores();

    MonitorHub hub;
    SimControls controls;
    controls.monitor = &hub;
    const piuma::SpmmRunStats monitored =
        simulateSpmm(csr, 8, cfg, piuma::SpmmAlgorithm::LoopUnrolled,
                     nullptr, &controls);
    EXPECT_DOUBLE_EQ(monitored.makespanNs, 7327.1428571425176);
    EXPECT_EQ(monitored.simEvents, 16987u);
}

// The dense program honours SimControls::monitor like SpMM: the hub
// receives issue, slice and stall spans, and the run is unchanged.
TEST(MonitorBitIdentity, DenseMmSpansReachTheHub)
{
    const piuma::PiumaConfig cfg = twoCores();
    const piuma::DenseRunStats plain =
        piuma::simulateDenseMm(1u << 10, 64, 64, cfg);

    MonitorHub hub;
    SimControls controls;
    controls.monitor = &hub;
    const piuma::DenseRunStats monitored =
        piuma::simulateDenseMm(1u << 10, 64, 64, cfg, nullptr, &controls);
    EXPECT_EQ(monitored.makespanNs, plain.makespanNs);
    EXPECT_EQ(monitored.simEvents, plain.simEvents);

    ASSERT_EQ(hub.cores(), cfg.numCores);
    const OccupancyReport rep = hub.report(monitored.makespanNs);
    double issued = 0.0, sliced = 0.0, stalled = 0.0;
    for (unsigned c = 0; c < hub.cores(); ++c) {
        issued += hub.issueTimeline(c)->total();
        sliced += hub.sliceTimeline(c)->total();
        stalled += rep.cores[c].stallMemNs + rep.cores[c].stallNetNs;
    }
    EXPECT_GT(issued, 0.0);
    EXPECT_GT(sliced, 0.0);
    EXPECT_GT(stalled, 0.0);
}

// ------------------------------------------- taxonomy and CP metrics

TEST(StallTaxonomy, CauseSumsMatchSiteCountersExactly)
{
    const graph::Csr csr = goldenGraph();
    for (const auto alg : {piuma::SpmmAlgorithm::Dma,
                           piuma::SpmmAlgorithm::LoopUnrolled}) {
        const piuma::SpmmRunStats s =
            simulateSpmm(csr, 16, twoCores(), alg);
        // Where a thread waited (local slice vs crossed the network)
        // re-buckets what it waited for; both views total identically.
        EXPECT_DOUBLE_EQ(s.stallMemoryNs + s.stallNetworkNs,
                         s.nnzStallNs + s.rowOffsetStallNs +
                             s.featureStallNs);
        EXPECT_GE(s.stallMemoryNs, 0.0);
        EXPECT_GE(s.stallNetworkNs, 0.0);
    }
}

TEST(CriticalPathMetrics, BoundedByEventCountAndPositive)
{
    const graph::Csr csr = goldenGraph();
    const piuma::SpmmRunStats s =
        simulateSpmm(csr, 16, twoCores(), piuma::SpmmAlgorithm::Dma);
    EXPECT_GT(s.criticalPathEvents, 0u);
    EXPECT_LE(s.criticalPathEvents, s.simEvents);
    EXPECT_GE(s.criticalPathParallelism, 1.0);
}

TEST(ScalingBound, ClassifiesByHeuristicOrder)
{
    piuma::SpmmRunStats s{};
    s.criticalPathParallelism = 4.0;
    EXPECT_STREQ(piuma::scalingBoundName(s, 16), "critical-path");
    s.maxMemUtilization = 0.99; // saturation outranks the event graph
    EXPECT_STREQ(piuma::scalingBoundName(s, 16), "resource:mem");
    s.maxMemUtilization = 0.2;
    s.netUtilization = 0.9;
    EXPECT_STREQ(piuma::scalingBoundName(s, 16), "resource:net");
    s.netUtilization = 0.2;
    s.criticalPathParallelism = 64.0; // plenty of chains, nothing full
    EXPECT_STREQ(piuma::scalingBoundName(s, 16), "latency");
}

} // namespace
