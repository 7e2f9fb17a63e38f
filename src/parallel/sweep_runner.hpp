/**
 * @file
 * Parallel sweep orchestrator: runs the independent points of a
 * figure/ablation sweep concurrently on the ThreadPool while keeping
 * every observable output byte-identical to a serial run.
 *
 * Sweep points are embarrassingly parallel — each is one complete
 * discrete-event simulation — but the surrounding machinery is not:
 * the JSONL checkpoint is an ordered append log, telemetry registries
 * are single-threaded by contract, and a fault-injection stream seeded
 * per *worker* would make results depend on the schedule. The runner
 * restores determinism by construction:
 *
 *  - one telemetry Session per worker (merged into a caller session
 *    afterwards, on worker-tagged tracks);
 *  - one FaultInjector per *point*, seeded from the base seed and a
 *    hash of the point's key, so timings are independent of which
 *    worker runs the point and of which other points the sweep holds;
 *  - completions funnel through an OrderedCheckpointWriter, which
 *    buffers out-of-order finishes and appends in submission order;
 *  - typed per-point errors are captured worker-locally and reported
 *    after the pool drains, in submission order — one diverging point
 *    neither poisons its siblings nor stalls the pool;
 *  - failures self-heal where that can help: transient errors (host
 *    I/O) get bounded in-process retries with exponential backoff,
 *    while permanent ones (config errors, unrecoverable injected
 *    faults) are quarantined into the checkpoint so a --resume run
 *    never re-executes a poisoned point.
 *
 * The result: `--jobs 8` and `--jobs 1` produce byte-identical
 * checkpoint and consolidated-JSON files, differing only in wall
 * clock.
 */
#ifndef PGCN_PARALLEL_SWEEP_RUNNER_HPP
#define PGCN_PARALLEL_SWEEP_RUNNER_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/checkpoint.hpp"
#include "sim/fault.hpp"
#include "telemetry/session.hpp"

namespace pgcn::parallel {

/** Per-point execution context handed to a sweep compute callback. */
struct SweepContext
{
    /// Pool thread running this point, in [0, jobs).
    unsigned worker = 0;
    /// The point's dense submission index (also its commit order).
    size_t pointIndex = 0;
    /// The executing worker's telemetry session; null = telemetry off.
    telemetry::Session *session = nullptr;
    /// Per-point fault/watchdog controls (never null inside compute).
    const sim::SimControls *controls = nullptr;
};

/** Knobs for one SweepRunner::run() invocation. */
struct SweepOptions
{
    /// Concurrent workers; 1 = serial on the calling thread, 0 =
    /// hardware concurrency.
    unsigned jobs = 1;
    /// Give each worker its own telemetry Session.
    bool telemetry = false;
    /// Base fault configuration; each point runs with a fresh injector
    /// seeded `faults->seed + fnv1a64(key)` so results depend neither
    /// on worker assignment nor on the point's position in the sweep. Disabled when unset.
    std::optional<sim::FaultConfig> faults;
    /// Self-healing: in-process attempts per point for *transient*
    /// failures (host I/O errors). 1 = fail fast. Permanent failures
    /// (config errors, unrecoverable injected faults, budget breaches)
    /// never retry — they would fail identically — and are quarantined
    /// instead.
    unsigned pointAttempts = 3;
    /// Host-side exponential backoff base between transient retries.
    double retryBackoffSeconds = 0.1;
    /// Event domains each simulated point shards its machine into,
    /// which also sets how they execute: 1 is one serial engine (the
    /// bit-identity oracle, DomainMode::Sequenced), N > 1 is N host
    /// threads under the conservative lookahead bound (Parallel), and
    /// 0 = auto lets the model pick per point from its die count and
    /// the host's concurrency, threaded whenever legal (Auto). Purely
    /// a wall-clock knob: point output is bit-identical for any value
    /// (see sim/domain.hpp), which the domain differential tests pin
    /// against the checkpoint bytes.
    unsigned domains = 1;
};

/**
 * A batch of keyed sweep points scheduled onto the thread pool (see
 * file comment). Usage: add() every point, run() once against the
 * sweep checkpoint, then read results back (by submission index) and
 * render tables on the calling thread.
 */
class SweepRunner
{
  public:
    /// Computes one point's checkpoint values; may throw pgcn::Error.
    using Compute =
        std::function<JsonlCheckpoint::Values(const SweepContext &)>;

    /** One captured per-point failure. */
    struct PointError
    {
        std::string key;     ///< the failed point's key
        std::string message; ///< the typed error's what()
        /// Failed on a pgcn::ConfigError, this run or (for a point a
        /// resume skips as quarantined) the run that quarantined it.
        bool configError = false;
    };

    /** What happened to each point of one run() invocation. */
    struct Outcome
    {
        /// Per-point values in submission-index order; nullopt = the
        /// point failed with a captured error.
        std::vector<std::optional<JsonlCheckpoint::Values>> results;
        /// Every failed point, in submission order (quarantine skips
        /// carry a "quarantined: " message prefix).
        std::vector<PointError> errors;
        /// Points computed this run.
        size_t computed = 0;
        /// Points served from the resume checkpoint without recompute.
        size_t reused = 0;
        /// Points that failed this run (logged; permanent failures are
        /// additionally quarantined in the checkpoint).
        size_t failed = 0;
        /// Points skipped because a prior run quarantined them; a
        /// --resume never re-executes a poisoned point.
        size_t quarantined = 0;
        /// Transient in-process retries spent across all points.
        size_t retried = 0;
    };

    explicit SweepRunner(SweepOptions options);

    /** Enqueue a point; returns its submission index. */
    size_t add(std::string key, Compute compute);

    /** Points enqueued so far. */
    size_t size() const { return points_.size(); }

    /** Effective worker count run() will use (resolves jobs == 0). */
    unsigned jobs() const;

    /**
     * Execute every enqueued point and commit results to @p ckpt in
     * submission order. Points already present in @p ckpt (a --resume
     * run) are reused without recomputation. Blocks until all points
     * are resolved; callable once per runner.
     */
    Outcome run(JsonlCheckpoint &ckpt);

    /**
     * Fold the per-worker telemetry sessions (worker-index order) into
     * @p target — see telemetry::Session::mergeWorker. No-op when the
     * runner was created with telemetry off. Call after run().
     */
    void mergeTelemetryInto(telemetry::Session &target) const;

  private:
    /** One enqueued point. */
    struct Point
    {
        std::string key;
        Compute compute;
    };

    SweepOptions options_;
    std::vector<Point> points_;
    std::vector<std::unique_ptr<telemetry::Session>> sessions_;
    bool ran_ = false;
};

} // namespace pgcn::parallel

#endif // PGCN_PARALLEL_SWEEP_RUNNER_HPP
