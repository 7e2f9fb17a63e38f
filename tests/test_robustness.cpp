/**
 * @file
 * Robustness tests: the failure paths this simulator is supposed to
 * take *gracefully*. Crafted deadlocks must surface as
 * SimDeadlockError naming the blocked agent and resource; watchdog
 * budgets must fail with a diagnostic snapshot; corrupt graph files
 * and nonsense configurations must throw typed errors instead of
 * propagating garbage; sweep checkpoints must survive torn writes and
 * reproduce byte-identical output on resume.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <string>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "gpu/config.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/normalize.hpp"
#include "piuma/config.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/queue.hpp"
#include "test_paths.hpp"
#include "xeon/config.hpp"

namespace {

using namespace pgcn;
using namespace pgcn::sim;
using pgcn_test::slurp;
using pgcn_test::testPath;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Deadlock detection

Process
starvedConsumer(Engine &engine, BoundedQueue<int> &queue)
{
    co_await engine.announce("starved-consumer");
    [[maybe_unused]] const int v = co_await queue.pop();
}

Process
wedgedProducer(Engine &engine, BoundedQueue<int> &queue)
{
    co_await engine.announce("wedged-producer");
    co_await queue.push(1);
    co_await queue.push(2); // queue capacity 1, nobody pops: wedges here
}

TEST(Deadlock, ConsumerlessPopNamesAgentAndResource)
{
    Engine engine;
    BoundedQueue<int> queue(engine, 4, "orphan.queue");
    starvedConsumer(engine, queue);
    try {
        engine.run();
        FAIL() << "expected SimDeadlockError";
    } catch (const SimDeadlockError &e) {
        ASSERT_EQ(e.blocked().size(), 1u);
        EXPECT_EQ(e.blocked()[0].agent, "starved-consumer");
        EXPECT_EQ(e.blocked()[0].resource, "orphan.queue (pop: queue empty)");
        const std::string what = e.what();
        EXPECT_NE(what.find("starved-consumer"), std::string::npos);
        EXPECT_NE(what.find("orphan.queue"), std::string::npos);
    }
}

TEST(Deadlock, FullQueueProducerReported)
{
    Engine engine;
    BoundedQueue<int> queue(engine, 1, "dma.queue");
    wedgedProducer(engine, queue);
    try {
        engine.run();
        FAIL() << "expected SimDeadlockError";
    } catch (const SimDeadlockError &e) {
        ASSERT_EQ(e.blocked().size(), 1u);
        EXPECT_EQ(e.blocked()[0].agent, "wedged-producer");
        EXPECT_EQ(e.blocked()[0].resource, "dma.queue (push: queue full)");
    }
}

Process
politeProducer(BoundedQueue<int> &queue, int n)
{
    for (int i = 0; i < n; ++i)
        co_await queue.push(i);
}

Process
politeConsumer(BoundedQueue<int> &queue, int n, int &sum)
{
    for (int i = 0; i < n; ++i)
        sum += co_await queue.pop();
}

TEST(Deadlock, BalancedProducerConsumerRunsClean)
{
    Engine engine;
    BoundedQueue<int> queue(engine, 2, "ok.queue");
    int sum = 0;
    politeProducer(queue, 8);
    politeConsumer(queue, 8, sum);
    EXPECT_NO_THROW(engine.run());
    EXPECT_EQ(sum, 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
}

TEST(Deadlock, UnnamedAgentGetsFallbackName)
{
    Engine engine;
    BoundedQueue<int> queue(engine, 4, "anon.queue");
    // No announce(): the report should still identify the coroutine.
    [](BoundedQueue<int> &q) -> Process {
        [[maybe_unused]] const int v = co_await q.pop();
    }(queue);
    try {
        engine.run();
        FAIL() << "expected SimDeadlockError";
    } catch (const SimDeadlockError &e) {
        ASSERT_EQ(e.blocked().size(), 1u);
        EXPECT_NE(e.blocked()[0].agent.find("agent@"), std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Watchdog budgets

/**
 * Every budget breach must carry the full postmortem snapshot: where
 * simulated time stood, how many events had dispatched, and how deep
 * the pending queue was at the moment of breach.
 */
void
checkBreachSnapshot(const SimLimitError &e, const char *budget_name)
{
    // what() names the breached budget (so logs are greppable by
    // budget kind) and embeds the snapshot.
    const std::string what = e.what();
    EXPECT_NE(what.find(budget_name), std::string::npos)
        << "what() does not name the breached budget: " << what;
    EXPECT_NE(what.find("budget exceeded"), std::string::npos);
    // snapshot() exposes the engine state on its own for log files.
    const std::string &snap = e.snapshot();
    EXPECT_FALSE(snap.empty());
    EXPECT_NE(snap.find("simulated time:"), std::string::npos);
    EXPECT_NE(snap.find("events dispatched:"), std::string::npos);
    EXPECT_NE(snap.find("pending events:"), std::string::npos);
    EXPECT_NE(what.find(snap), std::string::npos)
        << "what() must embed the snapshot";
}

TEST(RunLimits, MaxEventsBreachThrowsWithSnapshot)
{
    Engine engine;
    std::function<void()> tick = [&] {
        engine.schedule(1.0, [&tick] { tick(); });
    };
    engine.schedule(1.0, [&tick] { tick(); });
    Engine::RunLimits limits;
    limits.maxEvents = 100;
    engine.setRunLimits(limits);
    try {
        engine.run();
        FAIL() << "expected SimLimitError";
    } catch (const SimLimitError &e) {
        checkBreachSnapshot(e, "event budget");
    }
}

TEST(RunLimits, MaxSimTimeBreachThrowsWithSnapshot)
{
    Engine engine;
    std::function<void()> tick = [&] {
        engine.schedule(10.0, [&tick] { tick(); });
    };
    engine.schedule(10.0, [&tick] { tick(); });
    Engine::RunLimits limits;
    limits.maxSimTimeNs = 55.0;
    engine.setRunLimits(limits);
    try {
        engine.run();
        FAIL() << "expected SimLimitError";
    } catch (const SimLimitError &e) {
        checkBreachSnapshot(e, "simulated-time budget");
    }
    EXPECT_LE(engine.now(), 70.0);
}

TEST(RunLimits, MaxWallSecondsBreachThrowsWithSnapshot)
{
    // The wall clock is sampled every few thousand events, so the
    // ever-ticking agent guarantees the check is eventually reached;
    // the 1 ns budget is breached by the first sample.
    Engine engine;
    std::function<void()> tick = [&] {
        engine.schedule(1.0, [&tick] { tick(); });
    };
    engine.schedule(1.0, [&tick] { tick(); });
    Engine::RunLimits limits;
    limits.maxWallSeconds = 1e-9;
    engine.setRunLimits(limits);
    try {
        engine.run();
        FAIL() << "expected SimLimitError";
    } catch (const SimLimitError &e) {
        checkBreachSnapshot(e, "wall-clock budget");
    }
}

/** Sets @p destroyed when the coroutine frame holding it is freed. */
struct FrameGuard
{
    bool &destroyed;
    ~FrameGuard() { destroyed = true; }
};

Process
sleeper(Engine &engine, bool &destroyed)
{
    FrameGuard guard{destroyed};
    co_await engine.delay(1.0);
    co_await engine.delay(1.0);
}

// A breach aborts the run with the event being dispatched already out
// of the arenas: its coroutine frame must still be freed, not leaked.
TEST(RunLimits, BreachFreesTheFrameBeingDispatched)
{
    bool destroyed = false;
    Engine engine;
    Engine::RunLimits limits;
    limits.maxEvents = 1; // trips on the second wake
    engine.setRunLimits(limits);
    sleeper(engine, destroyed);
    EXPECT_THROW(engine.run(), SimLimitError);
    EXPECT_TRUE(destroyed);
}

TEST(RunLimits, GenerousLimitsDoNotFire)
{
    Engine engine;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        engine.schedule(1.0 * i, [&] { ++fired; });
    Engine::RunLimits limits;
    limits.maxEvents = 1000;
    limits.maxSimTimeNs = 1e9;
    limits.maxWallSeconds = 60.0;
    engine.setRunLimits(limits);
    EXPECT_NO_THROW(engine.run());
    EXPECT_EQ(fired, 10);
}

// ---------------------------------------------------------------------------
// Fault configuration validation

TEST(FaultConfig, RejectsOutOfRangeJitter)
{
    FaultConfig bad;
    bad.dramLatencyJitter = 1.0; // full amplitude could zero a duration
    EXPECT_THROW(bad.validate(), ConfigError);
    bad.dramLatencyJitter = -0.1;
    EXPECT_THROW(bad.validate(), ConfigError);
    bad.dramLatencyJitter = kNan;
    EXPECT_THROW(bad.validate(), ConfigError);
    FaultConfig ok;
    ok.dramLatencyJitter = 0.5;
    ok.serviceRateJitter = 0.999;
    EXPECT_NO_THROW(ok.validate());
}

// ---------------------------------------------------------------------------
// Checkpoints

TEST(Checkpoint, DisabledCheckpointIsInert)
{
    JsonlCheckpoint ckpt;
    EXPECT_FALSE(ckpt.enabled());
    ckpt.record("a", {{"x", 1.0}});
    EXPECT_EQ(ckpt.size(), 0u);
    EXPECT_EQ(ckpt.find("a"), nullptr);
}

TEST(Checkpoint, RecordReloadRoundTripsDoublesExactly)
{
    const std::string path = testPath("ckpt_roundtrip.jsonl");
    const double awkward[] = {1.0 / 3.0, 6.02214076e23, 1e-308,
                              -0.0078125, 123456789.123456789};
    {
        JsonlCheckpoint ckpt(path, /*resume=*/false);
        JsonlCheckpoint::Values values;
        for (size_t i = 0; i < std::size(awkward); ++i)
            values["v" + std::to_string(i)] = awkward[i];
        ckpt.record("point/a=1", values);
        ckpt.record("point/a=2", {{"only", 42.0}});
    }
    JsonlCheckpoint reloaded(path, /*resume=*/true);
    EXPECT_EQ(reloaded.size(), 2u);
    const auto *values = reloaded.find("point/a=1");
    ASSERT_NE(values, nullptr);
    for (size_t i = 0; i < std::size(awkward); ++i) {
        const double got = values->at("v" + std::to_string(i));
        // Bit-exact round trip, not approximate: resume depends on it.
        EXPECT_EQ(got, awkward[i]) << "field v" << i;
    }
    EXPECT_EQ(reloaded.find("point/missing"), nullptr);
}

TEST(Checkpoint, TruncatedLastLineIsSkipped)
{
    const std::string path = testPath("ckpt_torn.jsonl");
    {
        std::ofstream out(path);
        out << "{\"key\":\"done\",\"x\":1}\n";
        out << "{\"key\":\"torn\",\"x\":3.14"; // crash mid-write
    }
    JsonlCheckpoint ckpt(path, /*resume=*/true);
    EXPECT_EQ(ckpt.size(), 1u);
    EXPECT_NE(ckpt.find("done"), nullptr);
    EXPECT_EQ(ckpt.find("torn"), nullptr);
}

TEST(Checkpoint, FreshOpenDiscardsOldPoints)
{
    const std::string path = testPath("ckpt_fresh.jsonl");
    {
        JsonlCheckpoint ckpt(path, /*resume=*/false);
        ckpt.record("old", {{"x", 1.0}});
    }
    JsonlCheckpoint fresh(path, /*resume=*/false);
    EXPECT_EQ(fresh.size(), 0u);
    EXPECT_EQ(fresh.find("old"), nullptr);
}

TEST(Checkpoint, FinalJsonByteIdenticalAcrossResume)
{
    const std::string jsonl = testPath("ckpt_final.jsonl");
    const std::string direct_json = testPath("ckpt_direct.json");
    const std::string resumed_json = testPath("ckpt_resumed.json");
    {
        JsonlCheckpoint ckpt(jsonl, /*resume=*/false);
        ckpt.record("b", {{"gflops", 1.0 / 7.0}, {"ns", 4.5e6}});
        ckpt.record("a", {{"gflops", 2.0 / 3.0}});
        ckpt.writeFinalJson(direct_json);
    }
    {
        JsonlCheckpoint ckpt(jsonl, /*resume=*/true);
        ckpt.writeFinalJson(resumed_json);
    }
    const std::string direct = slurp(direct_json);
    EXPECT_FALSE(direct.empty());
    EXPECT_EQ(direct, slurp(resumed_json));
    // Keys come out sorted regardless of record order.
    EXPECT_LT(direct.find("\"a\""), direct.find("\"b\""));
}

// A stamped checkpoint starts with its stamp line, which is not a
// point: a matching resume reuses the points, and neither size() nor
// the consolidated JSON sees the stamp.
TEST(Checkpoint, StampedResumeReusesMatchingPoints)
{
    const std::string path = testPath("ckpt_stamp_match.jsonl");
    const std::string json = testPath("ckpt_stamp_match.json");
    {
        JsonlCheckpoint ckpt(path, /*resume=*/false, "00ab");
        ckpt.record("a", {{"x", 1.0}});
    }
    EXPECT_EQ(slurp(path),
              "{\"stamp\":\"00ab\"}\n{\"key\":\"a\",\"x\":1}\n");
    JsonlCheckpoint resumed(path, /*resume=*/true, "00ab");
    EXPECT_EQ(resumed.size(), 1u);
    ASSERT_NE(resumed.find("a"), nullptr);
    resumed.writeFinalJson(json);
    EXPECT_EQ(slurp(json).find("stamp"), std::string::npos);
}

// Points computed under another configuration must never be reused:
// a different stamp and a file with no stamp are both ConfigErrors.
TEST(Checkpoint, StampedResumeRejectsOtherOrMissingStamp)
{
    const std::string other = testPath("ckpt_stamp_other.jsonl");
    {
        JsonlCheckpoint ckpt(other, /*resume=*/false, "00ab");
        ckpt.record("a", {{"x", 1.0}});
    }
    EXPECT_THROW(JsonlCheckpoint(other, true, "00cd"), ConfigError);

    const std::string unstamped = testPath("ckpt_stamp_none.jsonl");
    {
        JsonlCheckpoint ckpt(unstamped, /*resume=*/false);
        ckpt.record("a", {{"x", 1.0}});
    }
    EXPECT_THROW(JsonlCheckpoint(unstamped, true, "00ab"), ConfigError);
}

// A run killed before it wrote anything leaves an empty file (or
// none): resuming it is a fresh run, which writes the stamp.
TEST(Checkpoint, StampedResumeOfEmptyOrMissingFileStartsFresh)
{
    const std::string empty = testPath("ckpt_stamp_empty.jsonl");
    std::ofstream(empty).close();
    const std::string missing = testPath("ckpt_stamp_missing.jsonl");
    std::remove(missing.c_str());
    for (const std::string &path : {empty, missing}) {
        {
            JsonlCheckpoint ckpt(path, /*resume=*/true, "00ab");
            EXPECT_EQ(ckpt.size(), 0u);
        }
        EXPECT_EQ(slurp(path), "{\"stamp\":\"00ab\"}\n");
    }
}

// Without a stamp a checkpoint writes only its points, as it always
// has, and skips a stamp line it reads.
TEST(Checkpoint, UnstampedCheckpointWritesOnlyPoints)
{
    const std::string path = testPath("ckpt_unstamped.jsonl");
    {
        JsonlCheckpoint ckpt(path, /*resume=*/false);
        ckpt.record("a", {{"x", 1.0}});
    }
    EXPECT_EQ(slurp(path), "{\"key\":\"a\",\"x\":1}\n");

    const std::string stamped = testPath("ckpt_unstamped_reads.jsonl");
    {
        JsonlCheckpoint ckpt(stamped, /*resume=*/false, "00ab");
        ckpt.record("a", {{"x", 1.0}});
    }
    JsonlCheckpoint reader(stamped, /*resume=*/true);
    EXPECT_EQ(reader.size(), 1u);
    EXPECT_NE(reader.find("a"), nullptr);
}

TEST(Checkpoint, UnwritablePathThrowsIoError)
{
    EXPECT_THROW(JsonlCheckpoint("/nonexistent-dir/x.jsonl", false),
                 IoError);
}

// ---------------------------------------------------------------------------
// Corrupt graph inputs

class CorruptInput : public ::testing::Test
{
  protected:
    std::string
    writeFile(const std::string &leaf, const std::string &content)
    {
        const std::string path = testPath(leaf);
        std::ofstream out(path, std::ios::binary);
        out << content;
        return path;
    }
};

TEST_F(CorruptInput, NegativeVertexIdRejected)
{
    const auto path = writeFile("neg.txt", "0 1 1.0\n-3 2 1.0\n");
    EXPECT_THROW(graph::loadEdgeListText(path), GraphIoError);
}

TEST_F(CorruptInput, OverflowingVertexIdRejected)
{
    const auto path =
        writeFile("huge.txt", "0 1 1.0\n99999999999999999999 2 1.0\n");
    EXPECT_THROW(graph::loadEdgeListText(path), GraphIoError);
}

TEST_F(CorruptInput, NanWeightRejected)
{
    const auto path = writeFile("nanw.txt", "0 1 nan\n");
    EXPECT_THROW(graph::loadEdgeListText(path), GraphIoError);
}

TEST_F(CorruptInput, InfWeightRejected)
{
    const auto path = writeFile("infw.txt", "0 1 inf\n");
    EXPECT_THROW(graph::loadEdgeListText(path), GraphIoError);
}

TEST_F(CorruptInput, GarbageWeightRejected)
{
    const auto path = writeFile("garbage.txt", "0 1 0.5abc\n");
    EXPECT_THROW(graph::loadEdgeListText(path), GraphIoError);
}

TEST_F(CorruptInput, TrailingFieldRejected)
{
    const auto path = writeFile("extra.txt", "0 1 1.0 surprise\n");
    EXPECT_THROW(graph::loadEdgeListText(path), GraphIoError);
}

TEST_F(CorruptInput, NegativeHeaderCountRejected)
{
    const auto path = writeFile("neghdr.txt", "# vertices -5\n0 1 1.0\n");
    EXPECT_THROW(graph::loadEdgeListText(path), GraphIoError);
}

TEST_F(CorruptInput, ValidEdgeListStillLoads)
{
    const auto path = writeFile(
        "ok.txt", "# vertices 4\n0 1 1.0\n1 2 0.5\n\n3 0 2.0\n");
    const graph::Coo coo = graph::loadEdgeListText(path);
    EXPECT_EQ(coo.numVertices(), 4u);
    EXPECT_EQ(coo.numEdges(), 3u);
}

TEST_F(CorruptInput, BinaryCsrTruncatedFileRejected)
{
    // A header whose claimed sizes exceed the file length must be
    // rejected *before* any allocation is attempted.
    std::string blob;
    const uint64_t magic = 0x5047434e43535231ULL; // "PGCNCSR1"
    const uint32_t version = 1;
    const uint64_t v = 1000, e = 1ull << 40; // absurd edge count
    blob.append(reinterpret_cast<const char *>(&magic), 8);
    blob.append(reinterpret_cast<const char *>(&version), 4);
    blob.append(reinterpret_cast<const char *>(&v), 8);
    blob.append(reinterpret_cast<const char *>(&e), 8);
    const auto path = writeFile("truncated.bin", blob);
    EXPECT_THROW(graph::loadCsrBinary(path), GraphIoError);
}

TEST_F(CorruptInput, BinaryCsrShortHeaderRejected)
{
    const auto path = writeFile("short.bin", "!C");
    EXPECT_THROW(graph::loadCsrBinary(path), GraphIoError);
}

// ---------------------------------------------------------------------------
// Loader fuzzing
//
// The hand-written corruption cases above cover the failure modes we
// thought of; the fuzz harness covers the ones we did not. Each seed
// corrupts a valid file — random byte flips or a truncation at a
// random offset — and the loader must do one of exactly two things:
// throw a *typed* error (GraphIoError/IoError) or return a structure
// that passes the format's own invariants (some corruptions, e.g. a
// digit flip in a weight, legitimately produce a different valid
// file). Crashes and hangs fail the harness; any other exception type
// is an escape from the error contract and fails too.

/** Corrupt @p blob in place: byte flips (even seeds) or truncation. */
std::string
corrupt(const std::string &blob, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::string out = blob;
    if (seed % 2 == 0) {
        const size_t flips = 1 + rng() % 4;
        for (size_t i = 0; i < flips; ++i)
            out[rng() % out.size()] =
                static_cast<char>(rng() & 0xff);
    } else {
        out.resize(rng() % out.size());
    }
    return out;
}

template <typename LoadAndCheck>
void
fuzzLoader(const std::string &valid_blob, const char *leaf,
           LoadAndCheck &&load)
{
    size_t rejected = 0, accepted = 0;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        const std::string path = testPath(leaf);
        {
            std::ofstream out(path, std::ios::binary);
            out << corrupt(valid_blob, seed);
        }
        try {
            load(path);
            ++accepted; // still-valid file: invariants checked inside
        } catch (const GraphIoError &) {
            ++rejected;
        } catch (const IoError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "seed " << seed
                          << ": untyped escape: " << e.what();
        }
    }
    EXPECT_EQ(rejected + accepted, 200u);
    // The harness is pointless if corruption never bites.
    EXPECT_GT(rejected, 0u);
}

TEST_F(CorruptInput, FuzzEdgeListTextNeverEscapesTypedErrors)
{
    const graph::Coo coo =
        graph::generateRmat(6, 128, graph::rmatSkewed(), 5);
    const std::string path = testPath("fuzz_valid.txt");
    graph::saveEdgeListText(coo, path);
    const std::string blob = slurp(path);
    ASSERT_FALSE(blob.empty());
    fuzzLoader(blob, "fuzz_mut.txt", [](const std::string &p) {
        const graph::Coo loaded = graph::loadEdgeListText(p);
        // Accepted parses must satisfy the loader's contract: every
        // endpoint in range, every weight finite. (A truncation to
        // zero complete lines legitimately yields an empty graph.)
        for (const auto &e : loaded.edges()) {
            ASSERT_LT(e.src, loaded.numVertices());
            ASSERT_LT(e.dst, loaded.numVertices());
            ASSERT_TRUE(std::isfinite(e.weight));
        }
    });
}

TEST_F(CorruptInput, FuzzBinaryCsrNeverEscapesTypedErrors)
{
    const graph::Csr csr = graph::normalizedAdjacency(
        graph::generateRmat(6, 128, graph::rmatSkewed(), 5));
    const std::string path = testPath("fuzz_valid.csr");
    graph::saveCsrBinary(csr, path);
    const std::string blob = slurp(path);
    ASSERT_FALSE(blob.empty());
    fuzzLoader(blob, "fuzz_mut.csr", [&](const std::string &p) {
        const graph::Csr loaded = graph::loadCsrBinary(p);
        // Structural invariants the loader promises to have checked.
        ASSERT_EQ(loaded.rowOffsets().size(), loaded.numVertices() + 1);
        ASSERT_EQ(loaded.rowOffsets().back(), loaded.numEdges());
        for (const auto c : loaded.cols())
            ASSERT_LT(c, loaded.numVertices());
    });
}

// ---------------------------------------------------------------------------
// Per-field config validation

template <typename Cfg, typename Mutate>
void
expectInvalid(Mutate &&mutate)
{
    Cfg cfg{};
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(PiumaConfigValidation, DefaultsAreValid)
{
    EXPECT_NO_THROW(piuma::PiumaConfig{}.validate());
    EXPECT_NO_THROW(piuma::PiumaConfig::singleDie().validate());
}

TEST(PiumaConfigValidation, EachFieldGuarded)
{
    using Cfg = piuma::PiumaConfig;
    expectInvalid<Cfg>([](Cfg &c) { c.numCores = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.mtpsPerCore = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.threadsPerMtp = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.coresPerDie = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.clockGhz = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.clockGhz = kNan; });
    expectInvalid<Cfg>([](Cfg &c) { c.dramLatencyNs = -1.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.dramLatencyNs = kInf; });
    expectInvalid<Cfg>([](Cfg &c) { c.sliceBandwidthGBps = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.sliceBandwidthGBps = -14.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.netSameDieNs = kNan; });
    expectInvalid<Cfg>([](Cfg &c) { c.netCrossDieNs = -250.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.netPortBandwidthGBps = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.dmaQueueDepth = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.dmaDescriptorOverheadNs = -1.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.dmaMaxInflight = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.spadBandwidthGBps = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.cacheLineBytes = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.dramLatencyScale = -1.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.dramLatencyScale = kNan; });
    expectInvalid<Cfg>([](Cfg &c) { c.dramBandwidthScale = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.issueCostPerEdge = -0.5; });
    expectInvalid<Cfg>([](Cfg &c) { c.issueCostPerDescriptor = kNan; });
    expectInvalid<Cfg>([](Cfg &c) { c.issueCostPerMac = -kInf; });
    expectInvalid<Cfg>([](Cfg &c) { c.issueCostPerLineLoad = kNan; });
}

TEST(XeonConfigValidation, DefaultsAreValid)
{
    EXPECT_NO_THROW(xeon::XeonConfig::platinum8380().validate());
}

TEST(XeonConfigValidation, EachFieldGuarded)
{
    using Cfg = xeon::XeonConfig;
    expectInvalid<Cfg>([](Cfg &c) { c.sockets = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.coresPerSocket = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.hyperThreadsPerCore = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.clockGhz = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.clockGhz = kNan; });
    expectInvalid<Cfg>([](Cfg &c) { c.fmaUnitsPerCore = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.simdLanesFp32 = 0; });
    expectInvalid<Cfg>([](Cfg &c) { c.socketStreamBandwidthGBps = -1.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.perThreadBandwidthGBps = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.hyperThreadPenalty = -0.1; });
    expectInvalid<Cfg>([](Cfg &c) { c.hyperThreadPenalty = kNan; });
    expectInvalid<Cfg>([](Cfg &c) { c.cacheBytesPerSocket = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.gatherEfficiency = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.gatherEfficiency = 1.5; });
    expectInvalid<Cfg>([](Cfg &c) { c.llcBandwidthGBps = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.cacheSkewExponent = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.denseEfficiency = kNan; });
    expectInvalid<Cfg>([](Cfg &c) { c.frameworkOverheadNs = -1.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.randomAccessLatencyNs = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.chasesOverlappedPerCore = 0.0; });
}

TEST(GpuConfigValidation, DefaultsAreValid)
{
    EXPECT_NO_THROW(gpu::GpuConfig::a100_40gb().validate());
}

TEST(GpuConfigValidation, EachFieldGuarded)
{
    using Cfg = gpu::GpuConfig;
    expectInvalid<Cfg>([](Cfg &c) { c.memoryBytes = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.hbmBandwidthGBps = -5.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.denseGflops = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.denseGflops = kInf; });
    expectInvalid<Cfg>([](Cfg &c) { c.spmmEfficiency = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.spmmEfficiency = 2.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.l2CacheBytes = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.l2ReuseFactor = 1.5; });
    expectInvalid<Cfg>([](Cfg &c) { c.l2ReuseFactor = kNan; });
    expectInvalid<Cfg>([](Cfg &c) { c.pcieBandwidthGBps = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.transferOverheadNs = -1.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.kernelLaunchOverheadNs = kNan; });
    expectInvalid<Cfg>([](Cfg &c) { c.hostSamplingEdgesPerNs = 0.0; });
    expectInvalid<Cfg>([](Cfg &c) { c.hostGatherBandwidthGBps = kInf; });
}

} // namespace
