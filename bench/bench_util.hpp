/**
 * @file
 * Shared helpers for the figure/table bench binaries: proxy-graph and
 * sweep-model construction, and the one command line every sweep bench
 * takes. A bench prints its tables and a simulator-throughput line to
 * stdout, and writes only the files its flags name:
 *  - telemetry: --trace=<path>, --metrics=<path> (a Perfetto-loadable
 *    trace of one span per simulated kernel run and a CSV of final
 *    counter values, both recorded from each run's returned stats);
 *  - sweep robustness: --checkpoint=<jsonl>, --resume,
 *    --sweep-json=<path> (a killed sweep recomputes only the missing
 *    points; the sweep JSON is the bench's one machine-readable
 *    output);
 *  - execution: --jobs N points wide and --domains 1|N|auto within a
 *    point, byte-identical to a serial run (see
 *    parallel/sweep_runner.hpp);
 *  - faults: --faults=dram_drop=1e-5,... (parseFaultSpec).
 * The shared flags are one table (kSharedFlags) that both the parser
 * and --help read. A bench declares its own flags to the same parser
 * (LocalFlag), e.g. fig8's --occupancy= and --no-monitors; any other
 * argument is a ConfigError. A bench whose sweep simulates nothing
 * rejects the flags that act on simulated points (SharedFlag::
 * simulated). Benches that run no sweep take no arguments at all
 * (runFixedBenchMain).
 */
#ifndef PGCN_BENCH_BENCH_UTIL_HPP
#define PGCN_BENCH_BENCH_UTIL_HPP

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/manifest.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "core/gcn_config.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "parallel/sweep_runner.hpp"
#include "sim/fault.hpp"
#include "telemetry/session.hpp"

namespace pgcn::bench {

/** Parsed bench command line: the shared flags every sweep bench takes. */
struct BenchArgs
{
    std::string benchName;   ///< basename of argv[0] (checkpoint stamp)
    std::string tracePath;   ///< --trace=: Chrome-trace JSON
    std::string metricsPath; ///< --metrics=: final-counter CSV
    std::string checkpointPath; ///< --checkpoint=: sweep JSONL file
    bool resume = false; ///< --resume: reuse completed checkpoint points
    std::string sweepJsonPath;  ///< --sweep-json=: consolidated sweep JSON
    unsigned jobs = 1; ///< --jobs: sweep workers (0 = hw concurrency)
    /// --domains=: host threads (event domains) each simulated point
    /// shards its machine into ("auto" = 0 = pick per point from the
    /// simulated die count and host concurrency). The count sets the
    /// mode (SweepOptions::domains): 1 is one serial engine, N > 1 is
    /// N threads under the conservative lookahead bound (rejected when
    /// the config makes it illegal), auto is threaded whenever legal.
    /// Output is bit-identical to one domain (the CI smoke `cmp`s the
    /// sweep JSON); composes freely with --jobs (points in parallel ×
    /// domains within one).
    unsigned domains = 1;
    /// --faults=: base fault-injection config for every sweep point
    /// (see parseFaultSpec); unset = no injection.
    std::optional<sim::FaultConfig> faults;
    /// The arguments, as typed, that change a point's values:
    /// --faults= and every bench-local flag but an output path. The
    /// checkpoint stamp covers them (checkpointStamp).
    std::vector<std::string> valueFlags;

    /** True when any telemetry output was asked for. */
    bool
    telemetryRequested() const
    {
        return !tracePath.empty() || !metricsPath.empty();
    }
};

/**
 * Parse the number @p value of @p flag.
 * @throws ConfigError unless the whole value is a number.
 */
inline double
parseNumber(const std::string &flag, const std::string &value)
{
    size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(value, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != value.size() || value.empty()) {
        PGCN_THROW(ConfigError,
                   flag << ": '" << value << "' is not a number");
    }
    return v;
}

/**
 * Parse the count @p value of @p flag: a whole number that fits @p T.
 * @throws ConfigError unless the whole value is such a number.
 */
template <typename T = unsigned>
inline T
parseCount(const std::string &flag, const std::string &value)
{
    size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(value, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != value.size() || value[0] == '-' ||
        v > std::numeric_limits<T>::max()) {
        PGCN_THROW(ConfigError,
                   flag << ": '" << value << "' is not a count");
    }
    return static_cast<T>(v);
}

/**
 * Parse a --faults= specification: comma-separated key=value pairs,
 * e.g. "dram_drop=1e-5,net_drop=1e-4,timeout_ns=500,max_retries=8".
 * One implementation shared by every sweep driver so the vocabulary
 * cannot drift between benches.
 *
 * Keys: seed, dram_jitter, service_jitter, net_jitter, dma_jitter,
 * dram_drop, net_drop, dma_drop, stuck_core, timeout_ns, backoff_ns,
 * max_retries, stuck_reset_ns.
 *
 * seed and max_retries take counts (parseCount); the rest take numbers.
 *
 * @throws ConfigError on an unknown key, a malformed pair, or a value
 *         FaultConfig::validate() rejects.
 */
inline sim::FaultConfig
parseFaultSpec(const std::string &spec)
{
    sim::FaultConfig cfg;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) {
            PGCN_THROW(ConfigError, "--faults item '"
                                        << item << "' is not key=value");
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        const std::string flag = "--faults " + key;
        const auto number = [&] { return parseNumber(flag, value); };
        if (key == "seed")
            cfg.seed = parseCount<uint64_t>(flag, value);
        else if (key == "dram_jitter")
            cfg.dramLatencyJitter = number();
        else if (key == "service_jitter")
            cfg.serviceRateJitter = number();
        else if (key == "net_jitter")
            cfg.networkLatencyJitter = number();
        else if (key == "dma_jitter")
            cfg.dmaOverheadJitter = number();
        else if (key == "dram_drop")
            cfg.dramDropRate = number();
        else if (key == "net_drop")
            cfg.netDropRate = number();
        else if (key == "dma_drop")
            cfg.dmaDropRate = number();
        else if (key == "stuck_core")
            cfg.stuckCoreRate = number();
        else if (key == "timeout_ns")
            cfg.timeoutNs = number();
        else if (key == "backoff_ns")
            cfg.backoffNs = number();
        else if (key == "max_retries")
            cfg.maxRetries = parseCount(flag, value);
        else if (key == "stuck_reset_ns")
            cfg.stuckResetNs = number();
        else {
            PGCN_THROW(ConfigError,
                       "--faults: unknown key '"
                           << key
                           << "' (known: seed, dram_jitter, "
                              "service_jitter, net_jitter, dma_jitter, "
                              "dram_drop, net_drop, dma_drop, "
                              "stuck_core, timeout_ns, backoff_ns, "
                              "max_retries, stuck_reset_ns)");
        }
    }
    // Per-field range validation (check::probability & friends) with
    // the same messages a programmatic misconfiguration would get.
    cfg.validate();
    return cfg;
}

/** Parse a --domains value: a count, or "auto" (= 0 sentinel). */
inline unsigned
parseDomainCount(const std::string &value)
{
    return value == "auto" ? 0 : parseCount("--domains", value);
}

/**
 * A flag one bench adds to the shared set. A @p name ending in '='
 * takes a value ("--mega="); any other name is a bare switch
 * ("--small"). @p help is its --help line. @p apply receives the
 * value, empty for a switch, and throws ConfigError on a malformed
 * one. An @p output flag only names a file the bench writes, so the
 * checkpoint stamp leaves it out.
 */
struct LocalFlag
{
    std::string name;
    std::string help;
    std::function<void(const std::string &)> apply;
    bool output = false;
};

/**
 * A flag every sweep bench takes. A @p name ending in '=' takes its
 * value inline; a @p spaced one takes it inline or as the next
 * argument ("--jobs=4", "--jobs 4"); any other name is a switch.
 */
struct SharedFlag
{
    const char *name;
    const char *value; ///< --help's placeholder for the value
    const char *help;
    /// Acts only on simulated points (telemetry, faults, domains): a
    /// bench whose sweep runs analytic models rejects it.
    bool simulated;
    bool spaced;
    void (*apply)(BenchArgs &, const std::string &);
};

/** The shared flags, in --help order; parseBenchArgs matches on it. */
inline const SharedFlag kSharedFlags[] = {
    {"--trace=", "<path>", "Chrome trace, one span per simulated run",
     true, false, [](BenchArgs &a, const std::string &v) { a.tracePath = v; }},
    {"--metrics=", "<path>", "CSV of final counter values", true, false,
     [](BenchArgs &a, const std::string &v) { a.metricsPath = v; }},
    {"--checkpoint=", "<path>", "JSONL file of completed sweep points",
     false, false,
     [](BenchArgs &a, const std::string &v) { a.checkpointPath = v; }},
    {"--resume", "", "reuse the completed points of --checkpoint=", false,
     false, [](BenchArgs &a, const std::string &) { a.resume = true; }},
    {"--sweep-json=", "<path>", "consolidated sweep JSON (needs --checkpoint=)",
     false, false,
     [](BenchArgs &a, const std::string &v) { a.sweepJsonPath = v; }},
    {"--jobs", "N", "sweep points run at once (0 = one per host thread)",
     false, true,
     [](BenchArgs &a, const std::string &v) {
         a.jobs = parseCount("--jobs", v);
     }},
    {"--domains", "N|auto", "event domains (host threads) per simulated point",
     true, true,
     [](BenchArgs &a, const std::string &v) {
         a.domains = parseDomainCount(v);
     }},
    {"--faults=", "<key=value,...>", "fault injection (seed, dram_drop, ...)",
     true, false,
     [](BenchArgs &a, const std::string &v) {
         a.faults = parseFaultSpec(v);
         a.valueFlags.push_back("--faults=" + v);
     }},
};

/**
 * Whether argv[@p i] is the flag @p name (see SharedFlag for the
 * forms). On a match @p value gets its value, empty for a switch, and
 * a spaced value advances @p i past it.
 * @throws ConfigError when a spaced flag is the last argument.
 */
inline bool
takeFlag(const std::string &name, bool spaced, int argc, char **argv,
         int &i, std::string &value)
{
    const std::string arg = argv[i];
    if (name.back() == '=') {
        if (arg.rfind(name, 0) != 0)
            return false;
        value = arg.substr(name.size());
        return true;
    }
    if (spaced && arg.rfind(name + "=", 0) == 0) {
        value = arg.substr(name.size() + 1);
        return true;
    }
    if (arg != name)
        return false;
    value.clear();
    if (spaced) {
        if (i + 1 >= argc)
            PGCN_THROW(ConfigError, name << " needs a value");
        value = argv[++i];
    }
    return true;
}

/** Print the flags parseBenchArgs takes: the --help text. */
inline void
printBenchHelp(std::ostream &os, const std::string &bench,
               const std::vector<LocalFlag> &local, bool simulates)
{
    os << "usage: " << bench << " [flags]\n";
    const auto row = [&](const std::string &usage, const std::string &help) {
        os << "  " << std::left << std::setw(27) << usage << ' ' << help
           << "\n";
    };
    for (const SharedFlag &f : kSharedFlags) {
        if (simulates || !f.simulated)
            row(std::string(f.name) + (f.spaced ? " " : "") + f.value, f.help);
    }
    for (const LocalFlag &f : local)
        row(f.name, f.help);
    row("--help", "print these flags and exit");
}

/**
 * Parse the shared flags (kSharedFlags) plus the bench's own @p local
 * ones. --help prints them all and exits 0.
 * @throws ConfigError on an unknown --flag (a typo such as
 *         --domain=4 would otherwise run a different
 *         configuration than asked), a positional argument (a flag
 *         typed without its "--" would otherwise run the default
 *         sweep), a malformed value, a flag that needs another one
 *         it was not given, or a simulated-only flag when
 *         @p simulates is false.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv,
               const std::vector<LocalFlag> &local = {},
               bool simulates = true)
{
    BenchArgs args;
    if (argc > 0 && argv[0] != nullptr) {
        const std::string self = argv[0];
        const size_t slash = self.find_last_of('/');
        args.benchName =
            slash == std::string::npos ? self : self.substr(slash + 1);
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            printBenchHelp(std::cout, args.benchName, local, simulates);
            std::exit(0);
        }
        std::string value;
        const auto shared = std::find_if(
            std::begin(kSharedFlags), std::end(kSharedFlags),
            [&](const SharedFlag &f) {
                return takeFlag(f.name, f.spaced, argc, argv, i, value);
            });
        if (shared != std::end(kSharedFlags)) {
            if (!simulates && shared->simulated) {
                PGCN_THROW(ConfigError,
                           shared->name << " acts on simulated points, and "
                                        << args.benchName
                                        << " simulates none");
            }
            shared->apply(args, value);
            continue;
        }
        const auto flag = std::find_if(
            local.begin(), local.end(), [&](const LocalFlag &f) {
                return takeFlag(f.name, false, argc, argv, i, value);
            });
        if (flag != local.end()) {
            flag->apply(value);
            if (!flag->output)
                args.valueFlags.push_back(arg);
        } else if (arg.rfind("--", 0) == 0) {
            PGCN_THROW(ConfigError, "unknown flag: " << arg);
        } else {
            PGCN_THROW(ConfigError, "unexpected positional argument '"
                                        << arg
                                        << "' (benches take --flags only)");
        }
    }
    // Both act on the checkpoint; without one they would do nothing.
    if (args.checkpointPath.empty() && args.resume)
        PGCN_THROW(ConfigError, "--resume needs --checkpoint=");
    if (args.checkpointPath.empty() && !args.sweepJsonPath.empty())
        PGCN_THROW(ConfigError, "--sweep-json= needs --checkpoint=");
    return args;
}

/**
 * The configuration stamp of a bench's checkpoint: a digest of the
 * bench name, the code (git SHA and dirty flag) and the flags that
 * change a point's values (BenchArgs::valueFlags, in any order).
 * Flags that shape only execution or output (--jobs, --domains,
 * output paths, telemetry) are left out, so a sweep may resume with
 * a different --jobs or --domains, or without fig8's --occupancy=.
 */
inline std::string
checkpointStamp(const BenchArgs &args)
{
    uint64_t h = fnv1a64(args.benchName);
    h = fnv1a64(std::string(version::kGitSha), h);
    h = fnv1a64(uint64_t{version::kGitDirty}, h);
    std::vector<std::string> flags = args.valueFlags;
    std::sort(flags.begin(), flags.end());
    for (const std::string &flag : flags)
        h = fnv1a64(flag, h);
    return hashHex(h);
}

/**
 * The sweep checkpoint per the parsed flags: a live JsonlCheckpoint
 * when --checkpoint= was given (loading completed points under
 * --resume, which must match checkpointStamp), a disabled one
 * otherwise.
 */
inline JsonlCheckpoint
makeCheckpoint(const BenchArgs &args)
{
    if (args.checkpointPath.empty())
        return {};
    JsonlCheckpoint ckpt(args.checkpointPath, args.resume,
                         checkpointStamp(args));
    if (args.resume)
        std::cout << "(resuming from " << args.checkpointPath << ": "
                  << ckpt.size() << " points already completed)\n";
    return ckpt;
}

/** Write the consolidated sweep JSON when --sweep-json= was given. */
inline void
finishSweep(const JsonlCheckpoint &ckpt, const BenchArgs &args)
{
    if (args.sweepJsonPath.empty())
        return;
    ckpt.writeFinalJson(args.sweepJsonPath);
    std::cout << "(sweep json written to " << args.sweepJsonPath << ", "
              << ckpt.size() << " points)\n";
}

/**
 * Top-level bench harness: run @p body, converting escaped typed
 * errors (and anything else derived from std::exception) into a clean
 * diagnostic and a non-zero exit instead of std::terminate.
 */
template <typename Fn>
inline int
runBenchMain(Fn &&body)
{
    try {
        if constexpr (std::is_void_v<std::invoke_result_t<Fn &>>) {
            body();
            return 0;
        } else {
            return body();
        }
    } catch (const Error &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "fatal (unexpected): " << e.what() << "\n";
        return 1;
    }
}

/**
 * runBenchMain for a bench that runs no sweep: it has no flag to take,
 * so any argument but a lone --help is a ConfigError rather than
 * silently ignored.
 */
template <typename Fn>
inline int
runFixedBenchMain(int argc, char **argv, Fn &&body)
{
    if (argc == 2 && std::string(argv[1]) == "--help") {
        std::cout << "usage: " << argv[0] << " (this bench takes no flags)\n";
        return 0;
    }
    return runBenchMain([&] {
        if (argc > 1) {
            PGCN_THROW(ConfigError, "unexpected argument '"
                                        << argv[1]
                                        << "' (this bench takes none)");
        }
        return body();
    });
}

/**
 * A telemetry session per the parsed flags, or null when none was
 * requested (a null session records nothing).
 */
inline std::unique_ptr<telemetry::Session>
makeSession(const BenchArgs &args)
{
    if (!args.telemetryRequested())
        return nullptr;
    return std::make_unique<telemetry::Session>();
}

/** Write the session's requested outputs (trace JSON, metrics CSV). */
inline void
finishSession(const telemetry::Session &session, const BenchArgs &args)
{
    if (!args.tracePath.empty()) {
        session.writeTrace(args.tracePath);
        std::cout << "(trace written to " << args.tracePath << ", "
                  << session.trace().eventCount() << " events)\n";
    }
    if (!args.metricsPath.empty()) {
        session.writeMetricsCsv(args.metricsPath);
        std::cout << "(metrics csv written to " << args.metricsPath
                  << ")\n";
    }
}

/**
 * Accumulates simulator (host) throughput over the DES runs a bench
 * binary performs. Feed it every run's stats with add(); print() a
 * one-line summary.
 */
class SimThroughput
{
  public:
    /** Fold in one simulated run (any *RunStats with the sim fields). */
    template <typename Stats>
    void
    add(const Stats &stats)
    {
        events_ += stats.simEvents;
        wallSeconds_ += stats.wallSeconds;
        peakQueueDepth_ =
            std::max<uint64_t>(peakQueueDepth_, stats.peakEventQueueDepth);
        ++runs_;
        if constexpr (requires { stats.windows; }) {
            maxDomains_ = std::max(maxDomains_, stats.domains);
            windows_ += stats.windows;
            crossPosts_ += stats.crossDomainPosts;
            if (stats.domains > 1) {
                minLookahead_ = std::min(minLookahead_, stats.lookaheadNs);
                maxLookahead_ = std::max(maxLookahead_, stats.lookaheadNs);
            }
        }
    }

    /** Simulated runs recorded so far. */
    uint64_t runs() const { return runs_; }

    /** Aggregate simulator throughput in events per second. */
    double
    eventsPerSec() const
    {
        return wallSeconds_ > 0.0
                   ? static_cast<double>(events_) / wallSeconds_
                   : 0.0;
    }

    /** One-line human-readable summary. */
    void
    print(std::ostream &os) const
    {
        os << "simulator throughput: "
           << eventsPerSec() / 1e6 << " M events/s ("
           << events_ << " events, " << wallSeconds_ << " s, "
           << runs_ << " runs, peak queue depth " << peakQueueDepth_;
        if (maxDomains_ > 1) {
            os << "; up to " << maxDomains_ << " domains, lookahead "
               << minLookahead_ << "-" << maxLookahead_ << " ns, "
               << windows_ << " windows, " << crossPosts_
               << " cross-domain posts";
        }
        os << ")\n";
    }

    /** Fold another accumulator in (per-worker totals -> grand total). */
    void
    merge(const SimThroughput &other)
    {
        events_ += other.events_;
        wallSeconds_ += other.wallSeconds_;
        peakQueueDepth_ =
            std::max(peakQueueDepth_, other.peakQueueDepth_);
        runs_ += other.runs_;
        maxDomains_ = std::max(maxDomains_, other.maxDomains_);
        windows_ += other.windows_;
        crossPosts_ += other.crossPosts_;
        minLookahead_ = std::min(minLookahead_, other.minLookahead_);
        maxLookahead_ = std::max(maxLookahead_, other.maxLookahead_);
    }

  private:
    uint64_t events_ = 0;
    double wallSeconds_ = 0.0;
    uint64_t peakQueueDepth_ = 0;
    uint64_t runs_ = 0;
    // Domain plans of the SpMM runs (see SpmmRunStats' host fields).
    unsigned maxDomains_ = 1;
    uint64_t windows_ = 0;
    uint64_t crossPosts_ = 0;
    double minLookahead_ = std::numeric_limits<double>::infinity();
    double maxLookahead_ = 0.0;
};

/**
 * The shared sweep driver every figure/ablation bench runs on: one
 * object wrapping the checkpoint, the parallel sweep runner, the
 * telemetry session and the per-worker simulator-throughput
 * accumulators, all configured from the parsed BenchArgs. Flow:
 *
 *   bench::SweepDriver driver(args);
 *   const size_t idx = driver.add("middle/cores=4",
 *       [&](const parallel::SweepContext &ctx) {
 *           const auto sim = simulateSpmm(csr, k, cfg,
 *                                         SpmmAlgorithm::Dma,
 *                                         ctx.session, ctx.controls);
 *           driver.throughput(ctx).add(sim);
 *           return JsonlCheckpoint::Values{{"gflops", sim.gflops}};
 *       });
 *   driver.run();          // executes all points, --jobs N wide
 *   ...driver.result(idx)  // render tables on the calling thread
 *   driver.finish();       // throughput + sweep JSON + trace/metrics
 *
 * Compute callbacks run on pool workers: they must only touch
 * worker-local state (the SweepContext's session/controls, the
 * ctx-indexed throughput accumulator) and read-only shared inputs
 * (graphs, configs captured by value). Everything order-sensitive —
 * checkpoint commits, error reports, table rendering, telemetry
 * merging — happens in submission order on the calling thread, which
 * is what keeps --jobs N output byte-identical to --jobs 1.
 */
class SweepDriver
{
  public:
    explicit SweepDriver(const BenchArgs &args)
        : args_(args),
          session_(makeSession(args)),
          ckpt_(makeCheckpoint(args)),
          runner_(makeOptions(args)),
          throughput_(runner_.jobs())
    {
        if (args.jobs != 1)
            std::cout << "(sweep running " << runner_.jobs()
                      << " points wide)\n";
    }

    /** Enqueue one keyed point; returns its submission index. */
    size_t
    add(const std::string &key, parallel::SweepRunner::Compute compute)
    {
        return runner_.add(key, std::move(compute));
    }

    /** The executing worker's throughput accumulator (race-free). */
    SimThroughput &
    throughput(const parallel::SweepContext &ctx)
    {
        return throughput_[ctx.worker];
    }

    /**
     * The bench's own session (telemetry flags given, else null) for
     * simulations running outside the sweep, e.g. a calibration run
     * on the calling thread. Worker traces merge into it at finish().
     */
    telemetry::Session *session() { return session_.get(); }

    /** Calling-thread throughput accumulator for out-of-sweep runs. */
    SimThroughput &throughput() { return throughput_[0]; }

    /** Execute every enqueued point; report failures like the serial
     *  driver did, in submission order. */
    void
    run()
    {
        outcome_ = runner_.run(ckpt_);
        if (outcome_.reused > 0)
            std::cout << "(resume: " << outcome_.reused << " of "
                      << runner_.size() << " points reused)\n";
        if (outcome_.quarantined > 0)
            std::cout << "(quarantine: " << outcome_.quarantined
                      << " poisoned point(s) skipped, not re-run)\n";
        for (const auto &err : outcome_.errors)
            std::cerr << "sweep point '" << err.key
                      << "' failed: " << err.message
                      << "\n  (point skipped; sweep continues)\n";
        // One bad point is quarantined and skipped, but a sweep whose
        // every point failed on its configuration has no result at
        // all: that is the run's error, not a point's. Points a resume
        // skips as quarantined count too, so resuming such a sweep
        // fails the same way.
        const bool all_config_errors =
            runner_.size() > 0 &&
            outcome_.errors.size() == runner_.size() &&
            std::all_of(outcome_.errors.begin(), outcome_.errors.end(),
                        [](const parallel::SweepRunner::PointError &e) {
                            return e.configError;
                        });
        if (all_config_errors) {
            PGCN_THROW(ConfigError, "all " << runner_.size()
                                           << " sweep points failed on a "
                                              "configuration error");
        }
    }

    /** Point @p index's values, or null if it failed. */
    const JsonlCheckpoint::Values *
    result(size_t index) const
    {
        return outcome_.results[index] ? &*outcome_.results[index]
                                       : nullptr;
    }

    /** Points that failed with a captured typed error. */
    size_t failed() const { return outcome_.failed; }

    /**
     * Wrap up after rendering: print aggregate simulator throughput
     * (when any DES ran), then write the consolidated sweep JSON and
     * the merged trace/metrics outputs.
     */
    void
    finish()
    {
        SimThroughput total;
        for (const SimThroughput &t : throughput_)
            total.merge(t);
        if (total.runs() > 0)
            total.print(std::cout);
        finishSweep(ckpt_, args_);
        if (session_) {
            runner_.mergeTelemetryInto(*session_);
            finishSession(*session_, args_);
        }
    }

  private:
    static parallel::SweepOptions
    makeOptions(const BenchArgs &args)
    {
        parallel::SweepOptions opt;
        opt.jobs = args.jobs;
        opt.telemetry = args.telemetryRequested();
        opt.faults = args.faults;
        opt.domains = args.domains;
        return opt;
    }

    BenchArgs args_;
    std::unique_ptr<telemetry::Session> session_;
    JsonlCheckpoint ckpt_;
    parallel::SweepRunner runner_;
    std::vector<SimThroughput> throughput_;
    parallel::SweepRunner::Outcome outcome_;
};

/**
 * A DES-friendly RMAT proxy with average degree ~16, the paper's
 * down-scaled-simulation methodology [18].
 *
 * @param scale log2 vertex count.
 * @param avg_degree Pre-normalisation average degree.
 */
inline graph::Csr
desProxy(uint32_t scale, uint32_t avg_degree = 16, uint64_t seed = 42)
{
    const auto edges =
        (graph::EdgeId{1} << scale) * avg_degree;
    return graph::normalizedAdjacency(
        graph::generateRmat(scale, edges, graph::rmatSkewed(), seed));
}

/** The paper's 3-layer GCN with hidden dimension @p hidden. */
inline core::GcnModelConfig
sweepModel(const graph::DatasetInfo &dataset, uint64_t hidden)
{
    core::GcnModelConfig cfg;
    cfg.inputDim = dataset.inputDim;
    cfg.hiddenDim = hidden;
    cfg.outputDim = dataset.numClasses;
    cfg.numLayers = 3;
    return cfg;
}

} // namespace pgcn::bench

#endif // PGCN_BENCH_BENCH_UTIL_HPP
