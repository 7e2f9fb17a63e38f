#include "parallel/sweep_runner.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/manifest.hpp"
#include "parallel/thread_pool.hpp"

namespace pgcn::parallel {

SweepRunner::SweepRunner(SweepOptions options) : options_(options)
{
    if (options_.faults)
        options_.faults->validate();
}

size_t
SweepRunner::add(std::string key, Compute compute)
{
    PGCN_ASSERT(!ran_, "add() after run()");
    points_.push_back(Point{std::move(key), std::move(compute)});
    return points_.size() - 1;
}

unsigned
SweepRunner::jobs() const
{
    if (options_.jobs != 0)
        return options_.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

SweepRunner::Outcome
SweepRunner::run(JsonlCheckpoint &ckpt)
{
    PGCN_ASSERT(!ran_, "run() called twice");
    ran_ = true;

    const size_t n = points_.size();
    Outcome out;
    out.results.resize(n);
    std::vector<uint8_t> point_failed(n, 0);
    std::vector<uint8_t> point_config_error(n, 0);
    std::vector<std::string> point_errors(n);
    std::atomic<size_t> retried{0};

    // Resolve resume hits up front on the calling thread: their values
    // are already in the checkpoint, and skipping them in submission
    // order lets later computed points flush past them. Quarantined
    // points likewise resolve here — a poisoned configuration is never
    // re-executed; it is reported as an error with its recorded cause.
    OrderedCheckpointWriter writer(ckpt, n);
    std::vector<uint8_t> todo(n, 1);
    for (size_t i = 0; i < n; ++i) {
        if (const JsonlCheckpoint::Values *done =
                ckpt.find(points_[i].key)) {
            out.results[i] = *done;
            writer.skip(i);
            todo[i] = 0;
            ++out.reused;
        } else if (const std::string *cause =
                       ckpt.findFailure(points_[i].key)) {
            point_failed[i] = 1;
            point_config_error[i] =
                ckpt.failedOnConfigError(points_[i].key);
            point_errors[i] = "quarantined: " + *cause;
            writer.skip(i);
            todo[i] = 0;
            ++out.quarantined;
        }
    }

    const unsigned num_workers = jobs();
    if (options_.telemetry) {
        sessions_.reserve(num_workers);
        for (unsigned w = 0; w < num_workers; ++w)
            sessions_.push_back(std::make_unique<telemetry::Session>());
    }

    // Dynamic chunk-1 scheduling: sweep points differ wildly in cost
    // (a 32-core K=256 DES run dwarfs a 1-core K=8 one), so static
    // slicing would leave workers idle behind one expensive slice.
    ThreadPool pool(num_workers);
    pool.parallelFor(
        n, Schedule::Dynamic, 1,
        [&](unsigned tid, uint64_t begin, uint64_t end) {
            for (uint64_t i = begin; i < end; ++i) {
                if (!todo[i])
                    continue;
                SweepContext ctx;
                ctx.worker = tid;
                ctx.pointIndex = i;
                ctx.session =
                    options_.telemetry ? sessions_[tid].get() : nullptr;
                // Worker-local capture plus self-healing: transient
                // errors retry in-process with exponential backoff;
                // permanent ones resolve as a quarantine so --resume
                // never re-runs a poisoned point. Either way the
                // commit cursor (and the pool) moves on.
                const unsigned attempts =
                    options_.pointAttempts != 0 ? options_.pointAttempts
                                                : 1;
                for (unsigned attempt = 0;; ++attempt) {
                    // Fresh per-POINT injector each attempt: seeding by
                    // the point's key (not worker, not attempt, not
                    // position) keeps perturbed timings
                    // schedule-independent, leaves a point's faults
                    // alone when other points are added or removed,
                    // and makes injected faults deterministic — which
                    // is exactly why they classify as permanent.
                    std::optional<sim::FaultInjector> faults;
                    sim::SimControls controls;
                    controls.domains = options_.domains;
                    controls.domainMode =
                        options_.domains == 1   ? sim::DomainMode::Sequenced
                        : options_.domains == 0 ? sim::DomainMode::Auto
                                                : sim::DomainMode::Parallel;
                    if (options_.faults) {
                        sim::FaultConfig cfg = *options_.faults;
                        cfg.seed += fnv1a64(points_[i].key);
                        faults.emplace(cfg);
                        controls.faults = &*faults;
                    }
                    ctx.controls = &controls;
                    try {
                        JsonlCheckpoint::Values values =
                            points_[i].compute(ctx);
                        writer.commit(i, points_[i].key, values);
                        out.results[i] = std::move(values);
                        break;
                    } catch (const Error &e) {
                        // A host I/O error (a full disk, a flaky
                        // filesystem) is environmental; everything else
                        // fails identically on every attempt.
                        const bool transient =
                            dynamic_cast<const IoError *>(&e) != nullptr;
                        if (transient && attempt + 1 < attempts) {
                            warn("sweep point '" + points_[i].key +
                                 "' failed transiently (attempt " +
                                 std::to_string(attempt + 1) + "/" +
                                 std::to_string(attempts) +
                                 "), retrying: " + e.what());
                            retried.fetch_add(1,
                                              std::memory_order_relaxed);
                            std::this_thread::sleep_for(
                                std::chrono::duration<double>(
                                    options_.retryBackoffSeconds *
                                    static_cast<double>(uint64_t{1}
                                                        << attempt)));
                            continue;
                        }
                        point_failed[i] = 1;
                        point_config_error[i] =
                            dynamic_cast<const ConfigError *>(&e) !=
                            nullptr;
                        point_errors[i] = e.what();
                        if (transient) {
                            // Environmental failure: do not poison the
                            // checkpoint, a later resume may succeed.
                            writer.skip(i);
                        } else {
                            writer.fail(i, points_[i].key, e.what(),
                                        point_config_error[i] != 0);
                        }
                        break;
                    } catch (const std::exception &e) {
                        point_failed[i] = 1;
                        point_errors[i] =
                            std::string("unexpected: ") + e.what();
                        writer.fail(i, points_[i].key, point_errors[i]);
                        break;
                    }
                }
            }
        });
    PGCN_ASSERT(writer.done(), "sweep finished with unresolved points");

    for (size_t i = 0; i < n; ++i) {
        if (point_failed[i]) {
            out.errors.push_back(PointError{points_[i].key,
                                            point_errors[i],
                                            point_config_error[i] != 0});
        }
    }
    // quarantined counts resume-time skips; fresh failures (permanent
    // or retry-exhausted transients) count as failed.
    out.failed = out.errors.size() - out.quarantined;
    out.computed = n - out.reused - out.failed - out.quarantined;
    out.retried = retried.load(std::memory_order_relaxed);
    return out;
}

void
SweepRunner::mergeTelemetryInto(telemetry::Session &target) const
{
    for (size_t w = 0; w < sessions_.size(); ++w)
        target.mergeWorker(*sessions_[w], w);
}

} // namespace pgcn::parallel
