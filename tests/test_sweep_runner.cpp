/**
 * @file
 * Tests for the parallel sweep runner and the ordered checkpoint
 * writer underneath it. The property everything here defends:
 * `--jobs N` is an implementation detail — checkpoint JSONL and
 * consolidated JSON come out byte-identical for any worker count, any
 * completion order, and across kill/resume, and a failing point is
 * logged and skipped without stalling the pool or poisoning its
 * siblings.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "parallel/sweep_runner.hpp"
#include "telemetry/session.hpp"
#include "test_paths.hpp"

namespace {

using namespace pgcn;
using parallel::SweepContext;
using parallel::SweepOptions;
using parallel::SweepRunner;
using pgcn_test::slurp;

// ---------------------------------------------------------------------------
// OrderedCheckpointWriter

TEST(OrderedWriter, OutOfOrderCommitsFlushInSubmissionOrder)
{
    const std::string path = pgcn_test::testPath("ordered.jsonl");
    {
        JsonlCheckpoint ckpt(path, /*resume=*/false);
        OrderedCheckpointWriter writer(ckpt, 3);
        writer.commit(2, "p2", {{"x", 2.0}});
        EXPECT_EQ(ckpt.size(), 0u); // buffered: 0 and 1 outstanding
        writer.commit(0, "p0", {{"x", 0.0}});
        EXPECT_EQ(ckpt.size(), 1u); // prefix [0] flushed
        writer.commit(1, "p1", {{"x", 1.0}});
        EXPECT_EQ(ckpt.size(), 3u); // prefix [1,2] drained
        EXPECT_TRUE(writer.done());
    }
    std::istringstream lines(slurp(path));
    std::string line;
    std::vector<std::string> keys;
    while (std::getline(lines, line))
        keys.push_back(line.substr(0, line.find(',')));
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_NE(keys[0].find("p0"), std::string::npos);
    EXPECT_NE(keys[1].find("p1"), std::string::npos);
    EXPECT_NE(keys[2].find("p2"), std::string::npos);
}

TEST(OrderedWriter, SkipAdvancesCursorWithoutWriting)
{
    const std::string path = pgcn_test::testPath("skip.jsonl");
    JsonlCheckpoint ckpt(path, /*resume=*/false);
    OrderedCheckpointWriter writer(ckpt, 3);
    writer.commit(1, "p1", {{"x", 1.0}});
    writer.skip(0); // resume hit or failed point: no record
    EXPECT_EQ(ckpt.size(), 1u);
    writer.commit(2, "p2", {{"x", 2.0}});
    EXPECT_TRUE(writer.done());
    EXPECT_EQ(writer.resolved(), 3u);
    EXPECT_EQ(ckpt.size(), 2u);
    EXPECT_EQ(ckpt.find("p0"), nullptr);
}

TEST(OrderedWriter, ZeroPointsIsImmediatelyDone)
{
    JsonlCheckpoint ckpt;
    OrderedCheckpointWriter writer(ckpt, 0);
    EXPECT_TRUE(writer.done());
    EXPECT_EQ(writer.resolved(), 0u);
}

// ---------------------------------------------------------------------------
// Jobs-count invariance

/**
 * A deterministic 12-point sweep whose points finish deliberately out
 * of order under parallel execution: early submission indices sleep
 * longest, so with 4+ workers the completion order is roughly the
 * reverse of the submission order and the ordered writer has to buffer
 * nearly the whole sweep.
 */
void
addAdversarialSweep(SweepRunner &runner)
{
    constexpr size_t kPoints = 12;
    for (size_t i = 0; i < kPoints; ++i) {
        runner.add(
            "point/i=" + std::to_string(i), [i](const SweepContext &) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2 * (kPoints - i)));
                const double x = static_cast<double>(i);
                return JsonlCheckpoint::Values{
                    {"awkward", x / 3.0 + 1e-13},
                    {"sq", x * x},
                };
            });
    }
}

std::string
runSweep(unsigned jobs, const std::string &jsonl,
         const std::string &json)
{
    SweepOptions options;
    options.jobs = jobs;
    SweepRunner runner(options);
    addAdversarialSweep(runner);
    JsonlCheckpoint ckpt(jsonl, /*resume=*/false);
    const auto outcome = runner.run(ckpt);
    EXPECT_EQ(outcome.computed, runner.size());
    EXPECT_EQ(outcome.failed, 0u);
    ckpt.writeFinalJson(json);
    return slurp(jsonl) + "\x1f" + slurp(json);
}

TEST(SweepRunner, JobsCountInvariantBytes)
{
    const std::string golden =
        runSweep(1, pgcn_test::testPath("j1.jsonl"),
                 pgcn_test::testPath("j1.json"));
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(runSweep(4, pgcn_test::testPath("j4.jsonl"),
                       pgcn_test::testPath("j4.json")),
              golden);
    EXPECT_EQ(runSweep(8, pgcn_test::testPath("j8.jsonl"),
                       pgcn_test::testPath("j8.json")),
              golden);
}

TEST(SweepRunner, JobsInvariantHoldsUnderNumaAuto)
{
    // NUMA pinning moves threads around; the ordered writer must still
    // produce byte-identical output for any worker count. On
    // single-node hosts auto is a no-op by design — the test then
    // degenerates to JobsCountInvariantBytes, which is the point: the
    // env knob must never change bytes either way.
    const char *old = getenv("PGCN_NUMA");
    const std::string saved = old != nullptr ? old : "";
    setenv("PGCN_NUMA", "auto", 1);
    const std::string golden =
        runSweep(1, pgcn_test::testPath("n1.jsonl"),
                 pgcn_test::testPath("n1.json"));
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(runSweep(6, pgcn_test::testPath("n6.jsonl"),
                       pgcn_test::testPath("n6.json")),
              golden);
    if (old != nullptr)
        setenv("PGCN_NUMA", saved.c_str(), 1);
    else
        unsetenv("PGCN_NUMA");
}

// ---------------------------------------------------------------------------
// Kill/resume

TEST(SweepRunner, ResumeAfterKillMatchesSerialBytes)
{
    // Serial golden run.
    const std::string golden_jsonl = pgcn_test::testPath("g.jsonl");
    const std::string golden_json = pgcn_test::testPath("g.json");
    runSweep(1, golden_jsonl, golden_json);
    const std::string golden = slurp(golden_jsonl);

    // Simulate a kill after 5 completed points: the checkpoint file is
    // the golden log truncated to its first 5 lines (the JSONL format
    // guarantees completed lines survive a crash; the torn-line case
    // is covered in test_robustness).
    size_t cut = 0;
    for (int lines = 0; lines < 5; ++cut)
        if (golden[cut] == '\n')
            ++lines;
    const std::string partial_jsonl = pgcn_test::testPath("r.jsonl");
    {
        std::ofstream out(partial_jsonl, std::ios::binary);
        out << golden.substr(0, cut);
    }

    // Resume with 4 workers.
    SweepOptions options;
    options.jobs = 4;
    SweepRunner runner(options);
    addAdversarialSweep(runner);
    JsonlCheckpoint ckpt(partial_jsonl, /*resume=*/true);
    const auto outcome = runner.run(ckpt);
    EXPECT_EQ(outcome.reused, 5u);
    EXPECT_EQ(outcome.computed, runner.size() - 5);
    EXPECT_EQ(outcome.failed, 0u);
    const std::string resumed_json = pgcn_test::testPath("r.json");
    ckpt.writeFinalJson(resumed_json);

    EXPECT_EQ(slurp(partial_jsonl), golden);
    EXPECT_EQ(slurp(resumed_json), slurp(golden_json));
}

// ---------------------------------------------------------------------------
// Typed per-point errors

TEST(SweepRunner, FailingPointLoggedSkippedSiblingsSurvive)
{
    SweepOptions options;
    options.jobs = 4;
    SweepRunner runner(options);
    for (size_t i = 0; i < 8; ++i) {
        runner.add("p/" + std::to_string(i),
                   [i](const SweepContext &) -> JsonlCheckpoint::Values {
                       if (i == 3)
                           throw ConfigError("deliberate failure");
                       return {{"v", static_cast<double>(i)}};
                   });
    }
    const std::string jsonl = pgcn_test::testPath("err.jsonl");
    JsonlCheckpoint ckpt(jsonl, /*resume=*/false);
    const auto outcome = runner.run(ckpt);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(outcome.computed, 7u);
    ASSERT_EQ(outcome.errors.size(), 1u);
    EXPECT_EQ(outcome.errors[0].key, "p/3");
    EXPECT_NE(outcome.errors[0].message.find("deliberate failure"),
              std::string::npos);
    EXPECT_FALSE(outcome.results[3].has_value());
    ASSERT_TRUE(outcome.results[4].has_value());
    EXPECT_EQ(outcome.results[4]->at("v"), 4.0);
    // The failed point is absent from the log; the rest kept order.
    EXPECT_EQ(ckpt.size(), 7u);
    EXPECT_EQ(ckpt.find("p/3"), nullptr);
    ASSERT_NE(ckpt.find("p/7"), nullptr);
}

TEST(SweepRunner, UnexpectedExceptionCapturedAsError)
{
    SweepRunner runner(SweepOptions{});
    runner.add("boom", [](const SweepContext &) -> JsonlCheckpoint::Values {
        throw std::runtime_error("not a pgcn::Error");
    });
    JsonlCheckpoint ckpt;
    const auto outcome = runner.run(ckpt);
    ASSERT_EQ(outcome.errors.size(), 1u);
    EXPECT_NE(outcome.errors[0].message.find("unexpected"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-point fault seeding: schedule independence

/** Each point's first jitter draw in a faulted sweep over @p keys. */
std::map<std::string, double>
faultedDraws(unsigned jobs, const std::vector<std::string> &keys)
{
    SweepOptions options;
    options.jobs = jobs;
    sim::FaultConfig faults;
    faults.seed = 1234;
    faults.dramLatencyJitter = 0.25;
    options.faults = faults;
    SweepRunner runner(options);
    for (const std::string &key : keys)
        runner.add(key, [](const SweepContext &ctx) {
            return JsonlCheckpoint::Values{
                {"d", ctx.controls->faults->dramLatency(100.0)}};
        });
    JsonlCheckpoint ckpt;
    const auto outcome = runner.run(ckpt);
    std::map<std::string, double> out;
    for (size_t i = 0; i < keys.size(); ++i)
        out[keys[i]] = outcome.results[i]->at("d");
    return out;
}

TEST(SweepRunner, FaultSeedsFollowPointIndexNotWorker)
{
    const std::vector<std::string> keys{"f/0", "f/1", "f/2",
                                        "f/3", "f/4", "f/5"};
    const auto serial = faultedDraws(1, keys);
    EXPECT_EQ(faultedDraws(4, keys), serial);
    // Distinct points see distinct streams (the seed folds in the key).
    EXPECT_NE(serial.at("f/0"), serial.at("f/1"));
}

// A point's faults follow its key, not its position: a sweep with one
// more leading point draws the same values for every shared key.
TEST(SweepRunner, FaultSeedsFollowPointKeyNotPosition)
{
    const auto plain = faultedDraws(1, {"f/0", "f/1"});
    const auto shifted = faultedDraws(1, {"f/extra", "f/0", "f/1"});
    EXPECT_EQ(shifted.at("f/0"), plain.at("f/0"));
    EXPECT_EQ(shifted.at("f/1"), plain.at("f/1"));
}

// ---------------------------------------------------------------------------
// Telemetry ownership and merge

TEST(SweepRunner, WorkerSessionsMergeIntoCaller)
{
    SweepOptions options;
    options.jobs = 3;
    options.telemetry = true;
    SweepRunner runner(options);
    for (size_t i = 0; i < 9; ++i) {
        runner.add("t/" + std::to_string(i),
                   [](const SweepContext &ctx) {
                       EXPECT_NE(ctx.session, nullptr);
                       ctx.session->registry().counter("sweep.pts").add(1);
                       return JsonlCheckpoint::Values{{"ok", 1.0}};
                   });
    }
    JsonlCheckpoint ckpt;
    runner.run(ckpt);
    telemetry::Session combined;
    runner.mergeTelemetryInto(combined);
    // Counters from all workers sum; no point was double-counted.
    EXPECT_EQ(combined.registry().counter("sweep.pts").value(), 9.0);
}

TEST(SweepRunner, TelemetryOffHandsNullSession)
{
    SweepRunner runner(SweepOptions{});
    runner.add("q", [](const SweepContext &ctx) {
        EXPECT_EQ(ctx.session, nullptr);
        EXPECT_NE(ctx.controls, nullptr);
        return JsonlCheckpoint::Values{{"ok", 1.0}};
    });
    JsonlCheckpoint ckpt;
    const auto outcome = runner.run(ckpt);
    EXPECT_EQ(outcome.computed, 1u);
}

TEST(SweepRunner, JobsZeroResolvesToHardwareConcurrency)
{
    SweepOptions options;
    options.jobs = 0;
    SweepRunner runner(options);
    EXPECT_GE(runner.jobs(), 1u);
}

// ---------------------------------------------------------------------------
// Self-healing: transient in-process retries, permanent quarantine

TEST(SweepRunner, TransientFailureHealsInProcess)
{
    SweepOptions options;
    options.pointAttempts = 3;
    options.retryBackoffSeconds = 0.0; // keep the test fast
    SweepRunner runner(options);
    std::atomic<int> calls{0};
    runner.add("flaky",
               [&calls](const SweepContext &) -> JsonlCheckpoint::Values {
                   if (calls.fetch_add(1) < 2)
                       throw IoError("disk hiccup");
                   return {{"ok", 1.0}};
               });
    JsonlCheckpoint ckpt(pgcn_test::testPath("heal.jsonl"),
                         /*resume=*/false);
    const auto outcome = runner.run(ckpt);
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(outcome.computed, 1u);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_EQ(outcome.retried, 2u);
    ASSERT_NE(ckpt.find("flaky"), nullptr);
}

TEST(SweepRunner, TransientExhaustionSkipsWithoutPoisoning)
{
    SweepOptions options;
    options.pointAttempts = 2;
    options.retryBackoffSeconds = 0.0;
    SweepRunner runner(options);
    std::atomic<int> calls{0};
    runner.add("cursed",
               [&calls](const SweepContext &) -> JsonlCheckpoint::Values {
                   calls.fetch_add(1);
                   throw IoError("disk always full");
               });
    JsonlCheckpoint ckpt;
    const auto outcome = runner.run(ckpt);
    EXPECT_EQ(calls.load(), 2); // initial attempt + one retry
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(outcome.quarantined, 0u);
    EXPECT_EQ(outcome.retried, 1u);
    // Environmental failures never poison the checkpoint: a later
    // resume gets to try again.
    EXPECT_EQ(ckpt.findFailure("cursed"), nullptr);
}

TEST(SweepRunner, PermanentFailureQuarantinedNeverReRun)
{
    const std::string path = pgcn_test::testPath("quarantine.jsonl");
    const auto addPoints = [](SweepRunner &runner,
                              std::atomic<int> &poison_calls) {
        runner.add("good/0", [](const SweepContext &) {
            return JsonlCheckpoint::Values{{"v", 0.0}};
        });
        runner.add("poison",
                   [&poison_calls](
                       const SweepContext &) -> JsonlCheckpoint::Values {
                       poison_calls.fetch_add(1);
                       throw ConfigError("bad shape: deterministic");
                   });
        runner.add("good/2", [](const SweepContext &) {
            return JsonlCheckpoint::Values{{"v", 2.0}};
        });
    };

    std::atomic<int> poison_calls{0};
    {
        SweepOptions options;
        options.pointAttempts = 3; // permanent: must NOT retry
        options.retryBackoffSeconds = 0.0;
        SweepRunner runner(options);
        addPoints(runner, poison_calls);
        JsonlCheckpoint ckpt(path, /*resume=*/false);
        const auto outcome = runner.run(ckpt);
        EXPECT_EQ(poison_calls.load(), 1);
        EXPECT_EQ(outcome.failed, 1u);
        EXPECT_EQ(outcome.quarantined, 0u);
        EXPECT_EQ(outcome.retried, 0u);
        // The failure is poisoned into the checkpoint with its cause.
        const std::string *cause = ckpt.findFailure("poison");
        ASSERT_NE(cause, nullptr);
        EXPECT_NE(cause->find("bad shape"), std::string::npos);
    }

    // Resume: the poisoned point is skipped outright — its compute is
    // never invoked again — and reported with its recorded cause.
    {
        SweepOptions options;
        options.jobs = 4;
        SweepRunner runner(options);
        addPoints(runner, poison_calls);
        JsonlCheckpoint ckpt(path, /*resume=*/true);
        const auto outcome = runner.run(ckpt);
        EXPECT_EQ(poison_calls.load(), 1); // unchanged: never re-run
        EXPECT_EQ(outcome.reused, 2u);
        EXPECT_EQ(outcome.quarantined, 1u);
        EXPECT_EQ(outcome.failed, 0u);
        EXPECT_EQ(outcome.computed, 0u);
        ASSERT_EQ(outcome.errors.size(), 1u);
        EXPECT_EQ(outcome.errors[0].key, "poison");
        EXPECT_NE(outcome.errors[0].message.find("quarantined: "),
                  std::string::npos);
        EXPECT_NE(outcome.errors[0].message.find("bad shape"),
                  std::string::npos);
    }
}

TEST(SweepRunner, QuarantineJsonlSurvivesRoundTripWithEscapes)
{
    const std::string path = pgcn_test::testPath("qescape.jsonl");
    {
        JsonlCheckpoint ckpt(path, /*resume=*/false);
        ckpt.record("alive", {{"v", 1.0}});
        ckpt.quarantine("dead", "line one\nline \"two\"\twith tab");
        EXPECT_EQ(ckpt.size(), 1u);
        EXPECT_EQ(ckpt.quarantinedCount(), 1u);
    }
    JsonlCheckpoint back(path, /*resume=*/true);
    EXPECT_EQ(back.size(), 1u);
    ASSERT_NE(back.find("alive"), nullptr);
    const std::string *cause = back.findFailure("dead");
    ASSERT_NE(cause, nullptr);
    EXPECT_EQ(*cause, "line one\nline \"two\"\twith tab");
    // A later successful record lifts the quarantine (last line wins).
    back.record("dead", {{"v", 2.0}});
    EXPECT_EQ(back.findFailure("dead"), nullptr);
    ASSERT_NE(back.find("dead"), nullptr);

    JsonlCheckpoint lifted(path, /*resume=*/true);
    EXPECT_EQ(lifted.findFailure("dead"), nullptr);
    ASSERT_NE(lifted.find("dead"), nullptr);
    EXPECT_EQ(lifted.quarantinedCount(), 0u);
}

TEST(SweepRunner, ConfigErrorQuarantineSurvivesResume)
{
    const std::string path = pgcn_test::testPath("qconfig.jsonl");
    const auto addPoints = [](SweepRunner &runner) {
        runner.add("misconfigured",
                   [](const SweepContext &) -> JsonlCheckpoint::Values {
                       throw ConfigError("timeout leaves no lookahead");
                   });
        runner.add("faulted",
                   [](const SweepContext &) -> JsonlCheckpoint::Values {
                       throw SimError("unrecoverable fault");
                   });
    };
    {
        SweepRunner runner(SweepOptions{});
        addPoints(runner);
        JsonlCheckpoint ckpt(path, /*resume=*/false);
        const auto outcome = runner.run(ckpt);
        ASSERT_EQ(outcome.errors.size(), 2u);
        EXPECT_TRUE(outcome.errors[0].configError);
        EXPECT_FALSE(outcome.errors[1].configError);
    }
    // Only the ConfigError line carries the flag; the other quarantine
    // line keeps its old bytes.
    const std::string text = slurp(path);
    EXPECT_NE(text.find("{\"key\":\"misconfigured\",\"quarantined\":"
                        "\"timeout leaves no lookahead\","
                        "\"config_error\":true}\n"),
              std::string::npos);
    EXPECT_NE(text.find("{\"key\":\"faulted\",\"quarantined\":"
                        "\"unrecoverable fault\"}\n"),
              std::string::npos);

    JsonlCheckpoint back(path, /*resume=*/true);
    EXPECT_EQ(back.quarantinedCount(), 2u);
    EXPECT_TRUE(back.failedOnConfigError("misconfigured"));
    EXPECT_FALSE(back.failedOnConfigError("faulted"));
    EXPECT_FALSE(back.failedOnConfigError("absent"));

    // A resume reports the skipped points with their recorded cause.
    SweepRunner runner(SweepOptions{});
    addPoints(runner);
    const auto outcome = runner.run(back);
    EXPECT_EQ(outcome.quarantined, 2u);
    ASSERT_EQ(outcome.errors.size(), 2u);
    EXPECT_TRUE(outcome.errors[0].configError);
    EXPECT_FALSE(outcome.errors[1].configError);
}

TEST(SweepRunner, QuarantineSectionInFinalJsonOnlyWhenPresent)
{
    const std::string clean_json = pgcn_test::testPath("qclean.json");
    const std::string dirty_json = pgcn_test::testPath("qdirty.json");
    {
        JsonlCheckpoint ckpt(pgcn_test::testPath("qclean.jsonl"),
                             /*resume=*/false);
        ckpt.record("a", {{"v", 1.0}});
        ckpt.writeFinalJson(clean_json);
    }
    EXPECT_EQ(slurp(clean_json).find("quarantined"), std::string::npos);
    {
        JsonlCheckpoint ckpt(pgcn_test::testPath("qdirty.jsonl"),
                             /*resume=*/false);
        ckpt.record("a", {{"v", 1.0}});
        ckpt.quarantine("b", "unrecoverable fault");
        ckpt.writeFinalJson(dirty_json);
    }
    const std::string dirty = slurp(dirty_json);
    EXPECT_NE(dirty.find("\"quarantined\""), std::string::npos);
    EXPECT_NE(dirty.find("unrecoverable fault"), std::string::npos);
}

} // namespace
