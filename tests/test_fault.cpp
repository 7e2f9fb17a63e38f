/**
 * @file
 * Fault-injection soak tests. Fault injection perturbs *timings*, so
 * a perturbed run must still satisfy every conservation invariant of
 * the unperturbed model: slice controllers serve exactly the bytes
 * the programs requested, stall attribution stays within the thread
 * time available, and simulated time stays finite and positive. The
 * perturbation stream is seeded, so a faulted run must also be
 * bit-reproducible, and a null/zero injector must leave the golden
 * event stream untouched.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <random>
#include <string>
#include <utility>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "piuma/config.hpp"
#include "piuma/spmm_programs.hpp"
#include "sim/fault.hpp"

namespace {

using namespace pgcn;
using piuma::PiumaConfig;
using piuma::SpmmAlgorithm;
using piuma::SpmmRunStats;
using sim::FaultConfig;
using sim::FaultInjector;
using sim::SimControls;

graph::Csr
soakGraph()
{
    // Small enough that 50 runs stay fast, big enough to exercise
    // every queue/resource path.
    return graph::normalizedAdjacency(
        graph::generateRmat(8, 4096, graph::rmatSkewed(), 42));
}

/**
 * The invariants every surviving run must satisfy — including runs
 * with hard drops, where served bytes legitimately exceed demanded
 * bytes by exactly the retried volume.
 */
void
checkInvariantsWithRecovery(const SpmmRunStats &s,
                            const PiumaConfig &cfg)
{
    ASSERT_TRUE(std::isfinite(s.makespanNs));
    EXPECT_GT(s.makespanNs, 0.0);
    EXPECT_GT(s.simEvents, 0u);

    EXPECT_GE(s.nnzStallNs, 0.0);
    EXPECT_GE(s.rowOffsetStallNs, 0.0);
    EXPECT_GE(s.featureStallNs, 0.0);
    EXPECT_GE(s.dmaQueueStallNs, 0.0);
    EXPECT_GE(s.issueNs, 0.0);
    const double accounted = s.nnzStallNs + s.rowOffsetStallNs +
                             s.featureStallNs + s.dmaQueueStallNs +
                             s.issueNs;
    const double available =
        static_cast<double>(cfg.totalThreads()) * s.makespanNs;
    EXPECT_LE(accounted, available * (1.0 + 1e-9));

    EXPECT_GE(s.memUtilization, 0.0);
    EXPECT_LE(s.memUtilization, 1.0 + 1e-9);
}

/** The invariants every run — faulted or not — must satisfy. */
void
checkInvariants(const SpmmRunStats &s, const PiumaConfig &cfg)
{
    ASSERT_TRUE(std::isfinite(s.makespanNs));
    EXPECT_GT(s.makespanNs, 0.0);
    EXPECT_GT(s.simEvents, 0u);

    // Conservation: bytes the slice controllers served == bytes the
    // programs requested. Fault injection changes *when*, never *how
    // much*.
    const double requested = s.bytesRead + s.bytesWritten;
    EXPECT_GT(requested, 0.0);
    EXPECT_NEAR(s.bytesServed, requested, 1e-6 * requested);

    // Stall attribution: non-negative, and the per-thread totals
    // cannot exceed the thread time physically available.
    EXPECT_GE(s.nnzStallNs, 0.0);
    EXPECT_GE(s.rowOffsetStallNs, 0.0);
    EXPECT_GE(s.featureStallNs, 0.0);
    EXPECT_GE(s.dmaQueueStallNs, 0.0);
    EXPECT_GE(s.issueNs, 0.0);
    const double accounted = s.nnzStallNs + s.rowOffsetStallNs +
                             s.featureStallNs + s.dmaQueueStallNs +
                             s.issueNs;
    const double available =
        static_cast<double>(cfg.totalThreads()) * s.makespanNs;
    EXPECT_LE(accounted, available * (1.0 + 1e-9));

    EXPECT_GE(s.memUtilization, 0.0);
    EXPECT_LE(s.memUtilization, 1.0 + 1e-9);
}

TEST(FaultSoak, FiftyRandomConfigsPreserveInvariants)
{
    const graph::Csr csr = soakGraph();
    // Fixed soak seed: a failure here reproduces exactly.
    std::mt19937_64 rng(20230419);
    std::uniform_real_distribution<double> jitter(0.0, 0.9);
    for (int i = 0; i < 50; ++i) {
        FaultConfig fc;
        fc.seed = rng();
        fc.dramLatencyJitter = jitter(rng);
        fc.serviceRateJitter = jitter(rng);
        fc.networkLatencyJitter = jitter(rng);
        fc.dmaOverheadJitter = jitter(rng);
        FaultInjector faults(fc);
        SimControls controls;
        controls.faults = &faults;

        PiumaConfig cfg;
        cfg.numCores = (i % 3 == 0) ? 4 : 8;
        const SpmmAlgorithm alg = (i % 2 == 0) ? SpmmAlgorithm::Dma
                                               : SpmmAlgorithm::LoopUnrolled;
        const SpmmRunStats s = simulateSpmm(csr, 16, cfg, alg, nullptr,
                                            &controls);
        SCOPED_TRACE("soak config #" + std::to_string(i) + " seed " +
                     std::to_string(fc.seed));
        checkInvariants(s, cfg);
        // The run actually consumed perturbation draws.
        EXPECT_GT(faults.draws(), 0u);
    }
}

TEST(FaultSoak, SameSeedBitReproducible)
{
    const graph::Csr csr = soakGraph();
    FaultConfig fc;
    fc.seed = 77;
    fc.dramLatencyJitter = 0.4;
    fc.serviceRateJitter = 0.3;
    fc.networkLatencyJitter = 0.5;
    fc.dmaOverheadJitter = 0.2;

    SpmmRunStats runs[2];
    uint64_t draws[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        FaultInjector faults(fc);
        SimControls controls;
        controls.faults = &faults;
        PiumaConfig cfg;
        runs[i] = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma, nullptr,
                               &controls);
        draws[i] = faults.draws();
    }
    EXPECT_EQ(runs[0].makespanNs, runs[1].makespanNs); // bit-exact
    EXPECT_EQ(runs[0].simEvents, runs[1].simEvents);
    EXPECT_EQ(runs[0].bytesRead, runs[1].bytesRead);
    EXPECT_EQ(runs[0].nnzStallNs, runs[1].nnzStallNs);
    EXPECT_EQ(draws[0], draws[1]);
}

TEST(FaultSoak, DifferentSeedsPerturbDifferently)
{
    const graph::Csr csr = soakGraph();
    double makespans[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
        FaultConfig fc;
        fc.seed = (i == 0) ? 1 : 2;
        fc.dramLatencyJitter = 0.4;
        fc.serviceRateJitter = 0.4;
        FaultInjector faults(fc);
        SimControls controls;
        controls.faults = &faults;
        PiumaConfig cfg;
        makespans[i] = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma,
                                    nullptr, &controls)
                           .makespanNs;
    }
    EXPECT_NE(makespans[0], makespans[1]);
}

TEST(FaultSoak, DisabledInjectionMatchesBaselineExactly)
{
    const graph::Csr csr = soakGraph();
    PiumaConfig cfg;
    const SpmmRunStats base =
        simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma);

    // Controls present but no injector attached.
    SimControls null_controls;
    const SpmmRunStats with_null = simulateSpmm(
        csr, 16, cfg, SpmmAlgorithm::Dma, nullptr, &null_controls);
    EXPECT_EQ(base.makespanNs, with_null.makespanNs);
    EXPECT_EQ(base.simEvents, with_null.simEvents);

    // Injector attached but every jitter zero: every hook is a no-op.
    FaultConfig zero;
    FaultInjector faults(zero);
    SimControls zero_controls;
    zero_controls.faults = &faults;
    const SpmmRunStats with_zero = simulateSpmm(
        csr, 16, cfg, SpmmAlgorithm::Dma, nullptr, &zero_controls);
    EXPECT_EQ(base.makespanNs, with_zero.makespanNs);
    EXPECT_EQ(base.simEvents, with_zero.simEvents);
    EXPECT_EQ(faults.draws(), 0u);
}

TEST(FaultSoak, RunLimitsThroughControlsAbortCleanly)
{
    const graph::Csr csr = soakGraph();
    PiumaConfig cfg;
    SimControls controls;
    controls.limits.maxEvents = 50; // far below what the run needs
    EXPECT_THROW(simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma, nullptr,
                              &controls),
                 sim::SimLimitError);

    // Drops armed on four Parallel domains: half the full run's events
    // stops it with retry records, cross-domain responses and parked
    // memory waiters all live. Teardown must release every one of
    // them (the sanitizer build checks that nothing leaks).
    FaultConfig fc;
    fc.seed = 17;
    fc.dramLatencyJitter = 0.2;
    fc.serviceRateJitter = 0.1;
    fc.networkLatencyJitter = 0.2;
    fc.dmaOverheadJitter = 0.1;
    fc.dramDropRate = 0.02;
    fc.dmaDropRate = 0.01;
    cfg.numCores = 8;
    SimControls dropping;
    dropping.domains = 4;
    dropping.domainMode = sim::DomainMode::Parallel;
    FaultInjector full_faults(fc);
    dropping.faults = &full_faults;
    const SpmmRunStats full = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma,
                                           nullptr, &dropping);
    ASSERT_GT(full.retries, 0u);
    FaultInjector aborted_faults(fc);
    dropping.faults = &aborted_faults;
    dropping.limits.maxEvents = full.simEvents / 2;
    EXPECT_THROW(simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma, nullptr,
                              &dropping),
                 sim::SimLimitError);
}

// ------------------------------------------------------------------
// Hard faults: dropped transactions/packets/descriptors and stuck
// cores, recovered by the modeled timeout/retry/backoff protocol.

/** Retry-conservation invariants a surviving hard-faulted run obeys. */
void
checkRecoveryInvariants(const SpmmRunStats &s)
{
    // Served bytes split exactly into demanded (goodput) and retried.
    EXPECT_NEAR(s.bytesServed, s.goodputBytes + s.retriedBytes,
                1e-6 * std::max(s.bytesServed, 1.0));
    EXPECT_NEAR(s.goodputBytes, s.bytesRead + s.bytesWritten,
                1e-6 * std::max(s.goodputBytes, 1.0));
    EXPECT_GE(s.retriedBytes, 0.0);
    // Every retry was triggered by a fired timeout or a stuck-core
    // reset; recovery time is non-negative and finite.
    EXPECT_GE(s.timeoutsFired + s.stuckResets, s.retries > 0 ? 1u : 0u);
    EXPECT_GE(s.recoveryNs, 0.0);
    ASSERT_TRUE(std::isfinite(s.recoveryNs));
}

TEST(HardFault, SoakFiftyConfigsConserveRetriedBytes)
{
    const graph::Csr csr = soakGraph();
    // Fixed soak seed: a failure here reproduces exactly. Rates stay
    // in the survivable regime (p^(R+1) x #requests << 1) so retry
    // exhaustion — tested separately — stays rare.
    std::mt19937_64 rng(20240817);
    std::uniform_real_distribution<double> rate(0.0, 0.03);
    int survived = 0;
    int faulted = 0;
    for (int i = 0; i < 50; ++i) {
        FaultConfig fc;
        fc.seed = rng();
        fc.dramDropRate = rate(rng);
        fc.netDropRate = rate(rng);
        fc.dmaDropRate = rate(rng);
        fc.stuckCoreRate = rate(rng);
        fc.maxRetries = 8;
        FaultInjector faults(fc);
        SimControls controls;
        controls.faults = &faults;

        PiumaConfig cfg;
        cfg.numCores = (i % 3 == 0) ? 4 : 8;
        const SpmmAlgorithm alg = (i % 2 == 0)
                                      ? SpmmAlgorithm::Dma
                                      : SpmmAlgorithm::LoopUnrolled;
        SCOPED_TRACE("hard-fault soak config #" + std::to_string(i) +
                     " seed " + std::to_string(fc.seed));
        try {
            const SpmmRunStats s =
                simulateSpmm(csr, 16, cfg, alg, nullptr, &controls);
            checkInvariantsWithRecovery(s, cfg);
            checkRecoveryInvariants(s);
            ++survived;
        } catch (const sim::SimFaultError &e) {
            // Retry exhaustion is a legal outcome: typed, sited,
            // never a deadlock.
            EXPECT_FALSE(e.site().empty());
            EXPECT_GT(e.attempts(), 1u);
            ++faulted;
        }
    }
    EXPECT_EQ(survived + faulted, 50);
    // At these rates nearly every config survives; the soak is about
    // surviving runs, so demand a healthy majority did.
    EXPECT_GE(survived, 40);
}

TEST(HardFault, SameSeedBitReproducible)
{
    const graph::Csr csr = soakGraph();
    FaultConfig fc;
    fc.seed = 99;
    fc.dramDropRate = 0.02;
    fc.netDropRate = 0.02;
    fc.dmaDropRate = 0.02;
    fc.stuckCoreRate = 0.01;
    fc.maxRetries = 10;

    SpmmRunStats runs[2];
    for (int i = 0; i < 2; ++i) {
        FaultInjector faults(fc);
        SimControls controls;
        controls.faults = &faults;
        PiumaConfig cfg;
        runs[i] = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma,
                               nullptr, &controls);
    }
    EXPECT_EQ(runs[0].makespanNs, runs[1].makespanNs); // bit-exact
    EXPECT_EQ(runs[0].retries, runs[1].retries);
    EXPECT_EQ(runs[0].timeoutsFired, runs[1].timeoutsFired);
    EXPECT_EQ(runs[0].stuckResets, runs[1].stuckResets);
    EXPECT_EQ(runs[0].retriedBytes, runs[1].retriedBytes);
    EXPECT_EQ(runs[0].recoveryNs, runs[1].recoveryNs);
    EXPECT_GT(runs[0].retries, 0u); // the drops actually happened
}

TEST(HardFault, ZeroRatesWithRecoveryKnobsMatchBaselineExactly)
{
    const graph::Csr csr = soakGraph();
    PiumaConfig cfg;
    const SpmmRunStats base =
        simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma);

    // Recovery policy configured, every fault class at rate zero: no
    // RNG draw, no schedule change, bit-identical event stream.
    FaultConfig fc;
    fc.timeoutNs = 300.0;
    fc.backoffNs = 50.0;
    fc.maxRetries = 5;
    FaultInjector faults(fc);
    SimControls controls;
    controls.faults = &faults;
    const SpmmRunStats s = simulateSpmm(csr, 16, cfg,
                                        SpmmAlgorithm::Dma, nullptr,
                                        &controls);
    EXPECT_EQ(base.makespanNs, s.makespanNs);
    EXPECT_EQ(base.simEvents, s.simEvents);
    EXPECT_EQ(faults.draws(), 0u);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.timeoutsFired, 0u);
    EXPECT_EQ(s.retriedBytes, 0.0);
}

TEST(HardFault, ExhaustedRetryBudgetRaisesTypedFault)
{
    const graph::Csr csr = soakGraph();
    FaultConfig fc;
    fc.dramDropRate = 1.0; // every attempt drops: unrecoverable
    fc.maxRetries = 2;
    FaultInjector faults(fc);
    SimControls controls;
    controls.faults = &faults;
    PiumaConfig cfg;
    try {
        simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma, nullptr,
                     &controls);
        FAIL() << "drop rate 1.0 must exhaust the retry budget";
    } catch (const sim::SimFaultError &e) {
        EXPECT_EQ(e.attempts(), fc.maxRetries + 1);
        EXPECT_NE(std::string(e.what()).find("retry budget exhausted"),
                  std::string::npos);
        EXPECT_FALSE(e.site().empty());
        EXPECT_GE(e.whenNs(), 0.0);
    }
}

TEST(HardFault, DmaFaultCarriesItsDetectionTime)
{
    // Every descriptor drops and there is no retry budget, so each
    // core's DMA engine abandons its first descriptor one timeout
    // after popping it. That is when the fault is detected, well
    // inside the clean run's makespan, although the faulted engines
    // go on draining (one timeout per descriptor) far beyond it.
    const graph::Csr csr = soakGraph();
    PiumaConfig cfg;
    cfg.numCores = 4;
    const SpmmRunStats clean = simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma);
    FaultConfig fc;
    fc.dmaDropRate = 1.0;
    fc.maxRetries = 0;
    FaultInjector faults(fc);
    SimControls controls;
    controls.faults = &faults;
    try {
        simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma, nullptr, &controls);
        FAIL() << "an abandoned descriptor must raise";
    } catch (const sim::SimFaultError &e) {
        EXPECT_NE(e.site().find("dma descriptor"), std::string::npos)
            << e.site();
        EXPECT_EQ(e.attempts(), 1u);
        EXPECT_GE(e.whenNs(), fc.timeoutNs);
        EXPECT_LT(e.whenNs(), clean.makespanNs + fc.timeoutNs);
    }
    // With DRAM drops armed too, the earliest of the thread and DMA
    // faults wins. Seed 12 loses a thread's row-offset read at 502 ns,
    // before any descriptor is abandoned; seed 14 loses an NNZ read at
    // 5588 ns, after the first descriptor was abandoned at ~2253 ns.
    fc.dramDropRate = 1e-4;
    for (const auto &[seed, site] :
         {std::pair<uint64_t, const char *>{12, "row-offset read"},
          std::pair<uint64_t, const char *>{14, "dma descriptor"}}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        fc.seed = seed;
        FaultInjector mixed(fc);
        controls.faults = &mixed;
        try {
            simulateSpmm(csr, 16, cfg, SpmmAlgorithm::Dma, nullptr,
                         &controls);
            ADD_FAILURE() << "the run must raise";
        } catch (const sim::SimFaultError &e) {
            EXPECT_NE(e.site().find(site), std::string::npos) << e.site();
            EXPECT_LT(e.whenNs(), 2500.0);
        }
    }
}

TEST(HardFault, LostResultRowWriteRaisesTypedFault)
{
    // The loop-unrolled program flushes finished rows as posted
    // writes: the thread never waits for them, so a lost one can only
    // surface after the run. With no retry budget every memory
    // timeout is unrecoverable, so a run that returns must have fired
    // none beyond its stuck-core resets; a posted loss must raise
    // SimFaultError naming the result-row write instead.
    const graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(8, 2000, graph::rmatSkewed(), 99));
    PiumaConfig cfg;
    cfg.numCores = 2;
    int returned = 0;
    int lost_rows = 0;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        FaultConfig fc;
        fc.seed = seed;
        fc.dramDropRate = 1e-4;
        fc.netDropRate = 1e-4;
        fc.maxRetries = 0;
        FaultInjector faults(fc);
        SimControls controls;
        controls.faults = &faults;
        SCOPED_TRACE("seed " + std::to_string(seed));
        try {
            const SpmmRunStats s =
                simulateSpmm(csr, 8, cfg, SpmmAlgorithm::LoopUnrolled,
                             nullptr, &controls);
            EXPECT_EQ(s.timeoutsFired, s.stuckResets);
            ++returned;
        } catch (const sim::SimFaultError &e) {
            EXPECT_EQ(e.attempts(), 1u);
            if (e.site().find("result-row write") != std::string::npos)
                ++lost_rows;
        }
    }
    EXPECT_GT(returned, 0);
    EXPECT_GT(lost_rows, 0); // the posted-loss path was exercised
}

TEST(HardFault, NoDropScheduleDeadlocks)
{
    // Property: whatever the drop rate, a run terminates — success or
    // SimFaultError. Never SimDeadlockError, never a hang (the oracle
    // timeout only arms on requests that actually drop, so the event
    // queue always drains).
    const graph::Csr csr = soakGraph();
    for (const double rate : {0.2, 0.5, 0.9, 1.0}) {
        for (const SpmmAlgorithm alg :
             {SpmmAlgorithm::Dma, SpmmAlgorithm::LoopUnrolled}) {
            FaultConfig fc;
            fc.seed = 7;
            fc.dramDropRate = rate;
            fc.netDropRate = rate;
            fc.dmaDropRate = rate;
            fc.maxRetries = 3;
            FaultInjector faults(fc);
            SimControls controls;
            controls.faults = &faults;
            PiumaConfig cfg;
            cfg.numCores = 4;
            SCOPED_TRACE("rate " + std::to_string(rate));
            try {
                const SpmmRunStats s = simulateSpmm(
                    csr, 16, cfg, alg, nullptr, &controls);
                checkRecoveryInvariants(s);
            } catch (const sim::SimFaultError &) {
                // Legal terminal outcome.
            } catch (const sim::SimDeadlockError &e) {
                FAIL() << "drop schedule deadlocked: " << e.what();
            }
        }
    }
}

TEST(HardFault, SmallEnvelopeReachesTheKnee)
{
    // The fault_envelope --small campaign point for point: arxiv
    // proxy, 4 cores, K=32, DMA SpMM, the "eager" policy, every fault
    // class at the swept rate, seeded base + point index as the bench
    // seeds it. Faults off must mean faults off, injection must be
    // live at every rate > 0, retries must conserve bytes, and the top
    // rate must inflate the makespan past the 2x envelope knee.
    const graph::Csr csr =
        graph::buildProxy(graph::datasetByName("arxiv"), 1u << 15)
            .adjacency;
    PiumaConfig cfg;
    cfg.numCores = 4;
    const double rates[] = {0.0, 1e-2, 1e-1};
    double base_makespan = 0.0;
    for (size_t i = 0; i < std::size(rates); ++i) {
        FaultConfig fc;
        fc.seed += i;
        fc.dramDropRate = rates[i];
        fc.netDropRate = rates[i];
        fc.dmaDropRate = rates[i];
        fc.stuckCoreRate = rates[i];
        fc.timeoutNs = 300.0;
        fc.backoffNs = 50.0;
        fc.maxRetries = 12;
        FaultInjector faults(fc);
        SimControls controls;
        controls.faults = &faults;
        SCOPED_TRACE("rate " + std::to_string(rates[i]));
        const SpmmRunStats s = simulateSpmm(csr, 32, cfg,
                                            SpmmAlgorithm::Dma, nullptr,
                                            &controls);
        EXPECT_NEAR(s.bytesServed, s.goodputBytes + s.retriedBytes,
                    1e-6 * std::max(s.bytesServed, 1.0));
        if (rates[i] == 0.0) {
            EXPECT_GT(s.goodputBytes, 0.0);
            EXPECT_EQ(s.timeoutsFired, 0u);
            EXPECT_EQ(s.retries, 0u);
            base_makespan = s.makespanNs;
        } else {
            EXPECT_GT(s.retries, 0u);
        }
        if (rates[i] == 1e-1) {
            EXPECT_GT(s.makespanNs, 2.0 * base_makespan);
        }
    }
}

} // namespace
