/**
 * @file
 * Perf benchmark program: runs one workload for a fixed wall-clock
 * budget, checks every output, and prints one JSON record as the last
 * line of stdout. perfbench/run.py builds this binary, runs it, and
 * reduces the record to the benchmark's result line.
 *
 *   pgcn_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--work-dir <dir>] [--tiny]
 *
 * Workloads (see perfbench/workloads.json for why each exists):
 *   host-infer  closed loop, one caller: GcnModel::infer on a 4-thread
 *               ThreadPool over a scale-16 skewed RMAT graph.
 *   sim-suite   closed loop, one caller: each operation runs
 *               piuma::simulateGcn (16 cores), a deep-calendar
 *               simulateSpmm point serial and on 4 Parallel domains
 *               (stats must agree), and the 9 fig8 DES points through
 *               parallel::SweepRunner at jobs=4 with a MonitorHub each.
 *
 * Untraced runs (--trace 0) time whole operations only. Traced runs
 * (--trace 1) alternate an untraced operation with a traced one whose
 * library calls are wrapped in spans recorded here, outside the
 * library: infer is replayed as its kernel sequence and simulateGcn as
 * its per-layer calls. The spans are kept in memory and written as a
 * Chrome trace at the end; per-layer numbers are derived from them.
 *
 * Every timing is host wall-clock (std::chrono::steady_clock).
 * Simulated time never enters a timing metric; the DES is not
 * validated against hardware, so no model-error figure is reported.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/manifest.hpp"
#include "common/version.hpp"
#include "core/gcn.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "kernels/simd.hpp"
#include "kernels/spmm.hpp"
#include "parallel/numa.hpp"
#include "parallel/sweep_runner.hpp"
#include "parallel/thread_pool.hpp"
#include "piuma/gcn_sim.hpp"
#include "sim/monitor.hpp"
#include "tensor/dense_mm.hpp"

using namespace pgcn;

namespace {

/// Host threads the benchmark may use: the pool, the sweep jobs and the
/// event domains are each capped here.
constexpr unsigned kHostThreads = 4;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------ options

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string workDir = ".";
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(value());
        } else if (a == "--seconds") {
            o.seconds = std::stod(value());
        } else if (a == "--trace") {
            o.trace = value() != "0";
        } else if (a == "--work-dir") {
            o.workDir = value();
        } else if (a == "--tiny") {
            o.tiny = true;
        } else {
            throw std::invalid_argument("unknown argument: " + a);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    if (!(o.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return o;
}

// ------------------------------------------------------------ tracing

/** One recorded span; times are seconds on the steady clock. */
struct Span
{
    const char *name = ""; ///< a string literal
    double start = 0.0;
    double end = 0.0;
    long parent = -1; ///< index of the enclosing span, -1 at the root
    uint64_t pass = 0; ///< operation id the span belongs to
    unsigned tid = 0;
};

/**
 * In-memory span recorder. Disabled tracers record nothing, so the
 * untraced operations pay one branch per call site. Thread-safe: sweep
 * points record from SweepRunner workers.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled)
    {
        if (enabled_)
            spans_.reserve(1 << 16);
    }

    long
    begin(const char *name, uint64_t pass, long parent,
          unsigned tid = 0)
    {
        if (!enabled_)
            return -1;
        const double t = nowS();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{name, t, t, parent, pass, tid});
        return static_cast<long>(spans_.size() - 1);
    }

    void
    end(long id)
    {
        if (id < 0)
            return;
        const double t = nowS();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<size_t>(id)].end = t;
    }

    /** Snapshot of every span (call after all recording threads end). */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

    /** Write the spans as Chrome-trace JSON ("X" complete events). */
    void
    writeChromeTrace(const std::string &path) const
    {
        const std::vector<Span> all = spans();
        const double t0 = all.empty() ? 0.0 : all.front().start;
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        char buf[512];
        for (size_t i = 0; i < all.size(); ++i) {
            const Span &s = all[i];
            std::snprintf(buf, sizeof(buf),
                          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                          "\"id\":%zu,\"parent\":%ld,\"pass\":%llu}}",
                          i == 0 ? "" : ",", s.name, s.tid,
                          (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i,
                          s.parent,
                          static_cast<unsigned long long>(s.pass));
            out << buf;
        }
        out << "\n]}\n";
        if (!out)
            throw std::runtime_error("cannot write trace " + path);
    }

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span on the calling thread. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, uint64_t pass,
              long parent = -1, unsigned tid = 0)
        : tracer_(tracer), id_(tracer.begin(name, pass, parent, tid))
    {
    }
    ~SpanScope() { tracer_.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    long id() const { return id_; }

  private:
    Tracer &tracer_;
    long id_;
};

/**
 * Per-name span statistics: total duration and self time (duration
 * minus the part of it that direct children cover; sweep points are
 * children that overlap on worker threads), in seconds, summed over
 * the spans of each pass, then the median over passes.
 */
struct SpanStats
{
    std::map<std::string, std::map<uint64_t, double>> total;
    std::map<std::string, std::map<uint64_t, double>> self;

    explicit SpanStats(const std::vector<Span> &spans)
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans.size());
        for (const Span &s : spans) {
            if (s.parent >= 0)
                kids[static_cast<size_t>(s.parent)].emplace_back(s.start,
                                                                 s.end);
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            total[s.name][s.pass] += s.end - s.start;
            self[s.name][s.pass] += s.end - s.start - covered(kids[i]);
        }
    }

    /** Length of the union of @p intervals. */
    static double
    covered(std::vector<std::pair<double, double>> &intervals)
    {
        std::sort(intervals.begin(), intervals.end());
        double sum = 0.0;
        double lo = 0.0;
        double hi = 0.0;
        for (size_t k = 0; k < intervals.size(); ++k) {
            if (k == 0 || intervals[k].first > hi) {
                sum += hi - lo;
                lo = intervals[k].first;
                hi = intervals[k].second;
            } else {
                hi = std::max(hi, intervals[k].second);
            }
        }
        return sum + (hi - lo);
    }

    /** Median over passes of the per-pass total (0 when absent). */
    double medianTotal(const std::string &name) const;
    /** Median over passes of the per-pass self time (0 when absent). */
    double medianSelf(const std::string &name) const;
};

// ------------------------------------------------------------- stats

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest sample with at least q of the samples
    // at or below it.
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
medianOf(const std::map<uint64_t, double> &per_pass)
{
    std::vector<double> v;
    for (const auto &kv : per_pass)
        v.push_back(kv.second);
    return median(v);
}

double
SpanStats::medianTotal(const std::string &name) const
{
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : medianOf(it->second);
}

double
SpanStats::medianSelf(const std::string &name) const
{
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : medianOf(it->second);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------- the record

/** What one run measured and checked; printed as one JSON line. */
struct Record
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<double> setupS;
    std::vector<double> opS;       ///< untraced operation wall times
    std::vector<double> tracedOpS; ///< traced operation wall times
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::map<std::string, std::string> digests;
    std::map<std::string, std::string> notes;
    /// Named per-operation time series kept in the record for reading.
    std::map<std::string, std::vector<double>> series;
    /// Traced runs: span name -> {median total ms, median self ms}.
    std::map<std::string, std::pair<double, double>> spans;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Count one operation; @p error empty means it passed its check. */
    void
    operation(const std::string &error)
    {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            if (failures.size() < 8)
                failures.push_back(error);
        }
    }
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
buildIsValid()
{
#if !defined(NDEBUG)
    return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return false;
#else
    return true;
#endif
#else
    return true;
#endif
}

long
cacheBytes(int name)
{
    const long v = sysconf(name);
    return v > 0 ? v : 0;
}

RunManifest
makeManifest(const Options &opt)
{
    RunManifest m;
    m.bench = "perfbench/" + opt.workload;
    m.timestamp = nowIso8601();
    m.gitSha = version::kGitSha;
    m.gitDirty = version::kGitDirty;
    m.buildType = version::kBuildType;
    m.compiler = version::kCompiler;
#ifdef PGCN_NO_TELEMETRY
    m.telemetryCompiled = false;
#endif
    m.simdTier = kernels::simd::tierName(kernels::simd::activeTier());
    m.numaNodes = parallel::detectNumaTopology().numNodes();
    m.hostThreads = std::thread::hardware_concurrency();
    m.seed = opt.seed;
    m.extra.emplace_back("l2_bytes",
                         std::to_string(cacheBytes(_SC_LEVEL2_CACHE_SIZE)));
    m.extra.emplace_back("l3_bytes",
                         std::to_string(cacheBytes(_SC_LEVEL3_CACHE_SIZE)));
    m.extra.emplace_back("benchmark_threads", std::to_string(kHostThreads));
    m.extra.emplace_back("trace", opt.trace ? "1" : "0");
    m.extra.emplace_back("tiny", opt.tiny ? "1" : "0");
    return m;
}

void
printRecord(const Options &opt, const Record &rec)
{
    const bool valid = buildIsValid();
    if (!valid) {
        std::cerr << "\n*** perfbench: built without NDEBUG or with a "
                     "sanitizer; this record is INVALID ***\n\n";
    }
    std::ostringstream os;
    os << "{\"workload\":\"" << jsonEscape(opt.workload) << "\""
       << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\"tiny\":" << (opt.tiny ? "true" : "false")
       << ",\"valid\":" << (valid ? "true" : "false")
       << ",\"attempted\":" << rec.attempted << ",\"failed\":" << rec.failed
       << ",\"failures\":[";
    for (size_t i = 0; i < rec.failures.size(); ++i)
        os << (i ? "," : "") << "\"" << jsonEscape(rec.failures[i]) << "\"";
    os << "],\"samples\":{\"setup\":" << rec.setupS.size()
       << ",\"ops\":" << rec.opS.size()
       << ",\"traced_ops\":" << rec.tracedOpS.size() << "}";
    const auto write_series = [&](const char *key,
                                  const std::vector<double> &v) {
        os << ",\"" << key << "\":[";
        for (size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << jsonNumber(v[i]);
        os << "]";
    };
    write_series("setup_s", rec.setupS);
    write_series("op_s", rec.opS);
    write_series("traced_op_s", rec.tracedOpS);
    for (const auto &[name, v] : rec.series)
        write_series(name.c_str(), v);
    os << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, vu] : rec.metrics) {
        os << (first ? "" : ",") << "\"" << jsonEscape(name)
           << "\":{\"value\":" << jsonNumber(vu.first) << ",\"unit\":\""
           << jsonEscape(vu.second) << "\"}";
        first = false;
    }
    os << "},\"digests\":{";
    first = true;
    for (const auto &[name, d] : rec.digests) {
        os << (first ? "" : ",") << "\"" << jsonEscape(name) << "\":\""
           << jsonEscape(d) << "\"";
        first = false;
    }
    os << "},\"notes\":{";
    first = true;
    for (const auto &[name, d] : rec.notes) {
        os << (first ? "" : ",") << "\"" << jsonEscape(name) << "\":\""
           << jsonEscape(d) << "\"";
        first = false;
    }
    os << "},\"spans\":{";
    first = true;
    for (const auto &[name, ts] : rec.spans) {
        os << (first ? "" : ",") << "\"" << jsonEscape(name)
           << "\":{\"total_ms\":" << jsonNumber(ts.first)
           << ",\"self_ms\":" << jsonNumber(ts.second) << "}";
        first = false;
    }
    os << "},\"manifest\":" << makeManifest(opt).toJsonLine() << "}";
    std::cout << os.str() << std::endl;
}

// ------------------------------------------------------ measure loop

/**
 * Run operations until the budget is spent. An operation is started
 * while at most half of it is expected to overrun the budget, and at
 * least @p min_ops run. @p op receives the operation index.
 */
void
measureLoop(double seconds, size_t min_ops,
            const std::function<void(size_t)> &op)
{
    const double t0 = nowS();
    double last = 0.0;
    for (size_t i = 0;; ++i) {
        const double elapsed = nowS() - t0;
        if (i >= min_ops && elapsed + 0.5 * last > seconds)
            break;
        const double s = nowS();
        op(i);
        last = nowS() - s;
    }
}

// ------------------------------------------------------------ digests

uint64_t
fold(uint64_t h, double v)
{
    return fnv1a64(v, h);
}

uint64_t
fold(uint64_t h, uint64_t v)
{
    return fnv1a64(v, h);
}

/**
 * Digest of every deterministic SpmmRunStats field. Host fields
 * (wallSeconds, eventsPerSec) and peakEventQueueDepth are left out:
 * Parallel mode samples queue depth per worker round, so its peak is a
 * host artifact (DESIGN.md section 15).
 */
uint64_t
spmmDigest(const piuma::SpmmRunStats &s, uint64_t h = kFnv1aOffset)
{
    for (const double v :
         {s.makespanNs, s.flop, s.gflops, s.bytesRead, s.bytesWritten,
          s.bytesServed, s.memUtilization, s.maxMemUtilization,
          s.netUtilization, s.remoteAccessFraction, s.maxSliceBytesFraction,
          s.nnzStallNs, s.rowOffsetStallNs, s.featureStallNs,
          s.dmaQueueStallNs, s.issueNs, s.stallMemoryNs, s.stallNetworkNs,
          s.issueUtilization, s.dmaUtilization, s.criticalPathParallelism,
          s.latencyHidingEffectiveness, s.exposedStallNs, s.avgNnzLatencyNs,
          s.goodputBytes, s.retriedBytes, s.recoveryNs})
        h = fold(h, v);
    for (const uint64_t v :
         {s.memAccesses, s.memRemoteAccesses, s.criticalPathEvents,
          s.nnzReads, s.dmaDescriptors, s.simEvents, s.retries,
          s.timeoutsFired, s.stuckResets})
        h = fold(h, v);
    return h;
}

/** Digest of every deterministic DenseRunStats field. */
uint64_t
denseDigest(const piuma::DenseRunStats &s, uint64_t h = kFnv1aOffset)
{
    for (const double v : {s.makespanNs, s.flop, s.gflops, s.memUtilization,
                           s.issueUtilization, s.goodputBytes, s.recoveryNs})
        h = fold(h, v);
    for (const uint64_t v : {s.simEvents, s.retries, s.timeoutsFired})
        h = fold(h, v);
    return h;
}

/** Empty when the run conserved bytes (served == goodput + retried). */
std::string
conservationError(const piuma::SpmmRunStats &s, const std::string &what)
{
    const double want = s.goodputBytes + s.retriedBytes;
    if (std::abs(s.bytesServed - want) <=
        1e-9 * std::max(1.0, std::abs(want)))
        return {};
    std::ostringstream os;
    os.precision(17);
    os << what << ": bytesServed " << s.bytesServed
       << " != goodput + retried " << want;
    return os.str();
}

/** Empty when two SpmmRunStats agree in every deterministic field. */
std::string
spmmMismatch(const piuma::SpmmRunStats &a, const piuma::SpmmRunStats &b)
{
    if (spmmDigest(a) == spmmDigest(b))
        return {};
    std::ostringstream os;
    os.precision(17);
    os << "serial and parallel SpmmRunStats differ (makespan " << a.makespanNs
       << " vs " << b.makespanNs << ", events " << a.simEvents << " vs "
       << b.simEvents << ")";
    return os.str();
}

/** Build the inputs kSetupReps times, timing each; keeps the last. */
template <typename Make>
auto
setUp(Record &rec, const Make &make)
{
    std::optional<decltype(make())> inputs;
    for (int r = 0; r < kSetupReps; ++r) {
        const double t0 = nowS();
        inputs.reset();
        inputs.emplace(make());
        rec.setupS.push_back(nowS() - t0);
    }
    return std::move(*inputs);
}

std::string
runGuarded(const std::function<std::string()> &fn)
{
    try {
        return fn();
    } catch (const std::exception &e) {
        return std::string("threw: ") + e.what();
    }
}

// -------------------------------------------------------- host-infer

struct HostInputs
{
    graph::Csr adjacency;
    tensor::DenseMatrix features;
    core::GcnModel model;
};

HostInputs
makeHostInputs(const Options &opt)
{
    const uint32_t scale = opt.tiny ? 10 : 16;
    const graph::Coo coo = graph::shuffleVertexIds(
        graph::generateRmat(scale, (graph::EdgeId{1} << scale) * 16,
                            graph::rmatSkewed(), opt.seed),
        opt.seed + 1);
    graph::Csr adjacency = graph::normalizedAdjacency(coo);
    core::GcnModelConfig cfg;
    cfg.inputDim = 100;
    cfg.hiddenDim = 128;
    cfg.outputDim = 47;
    cfg.numLayers = 3;
    cfg.order = core::LayerOrder::TransformThenAggregate;
    tensor::DenseMatrix features(adjacency.numVertices(), cfg.inputDim);
    features.fillRandom(opt.seed + 2);
    return HostInputs{std::move(adjacency), std::move(features),
                      core::GcnModel(cfg, opt.seed + 3)};
}

uint64_t
matrixDigest(const tensor::DenseMatrix &m)
{
    return fnv1a64(m.data(), m.bytes(), fold(fold(kFnv1aOffset, m.rows()),
                                             m.cols()));
}

/** The functional oracle: reference GEMM, reference SpMM and ReLU. */
std::string
checkAgainstReference(const HostInputs &in, const tensor::DenseMatrix &out)
{
    tensor::DenseMatrix h = in.features;
    tensor::DenseMatrix mid;
    tensor::DenseMatrix next;
    const unsigned layers = in.model.config().numLayers;
    for (unsigned l = 0; l < layers; ++l) {
        tensor::denseMmReference(h, in.model.weights(l), mid);
        kernels::spmmReference(in.adjacency, mid, next);
        if (l + 1 < layers)
            tensor::reluInPlace(next);
        std::swap(h, next);
    }
    if (h.rows() != out.rows() || h.cols() != out.cols())
        return "logits shape differs from the reference";
    double max_abs = 0.0;
    for (uint64_t i = 0; i < h.size(); ++i)
        max_abs = std::max(max_abs, std::abs(double{h.data()[i]}));
    for (uint64_t i = 0; i < h.size(); ++i) {
        const double ref = h.data()[i];
        const double got = out.data()[i];
        // FMA and summation order differ between the kernels and the
        // reference, so allow a small error relative to the logits.
        const double tol = 1e-4 * max_abs + 1e-3 * std::abs(ref);
        if (!(std::abs(got - ref) <= tol)) {
            std::ostringstream os;
            os << "logit " << i << " = " << got << ", reference " << ref;
            return os.str();
        }
    }
    return {};
}

/** infer() replayed as its kernel sequence, each call in a span. */
tensor::DenseMatrix
replayInfer(const HostInputs &in, parallel::ThreadPool &pool,
            Tracer &tracer, uint64_t pass)
{
    SpanScope root(tracer, "core.infer.replay", pass);
    tensor::DenseMatrix h;
    {
        SpanScope s(tracer, "core.input_copy", pass, root.id());
        h = in.features;
    }
    tensor::DenseMatrix mid;
    tensor::DenseMatrix result;
    const unsigned layers = in.model.config().numLayers;
    for (unsigned l = 0; l < layers; ++l) {
        {
            SpanScope s(tracer, "tensor.denseMmBlocked", pass, root.id());
            tensor::denseMmBlocked(h, in.model.weights(l), mid);
        }
        {
            SpanScope s(tracer, "kernels.spmmVertexParallel", pass,
                        root.id());
            kernels::spmmVertexParallel(in.adjacency, mid, result, pool);
        }
        if (l + 1 < layers) {
            SpanScope s(tracer, "tensor.reluInPlace", pass, root.id());
            tensor::reluInPlace(result);
        }
        std::swap(h, result);
    }
    return h;
}

void
runHostInfer(const Options &opt, Record &rec, Tracer &tracer)
{
    const HostInputs in =
        setUp(rec, [&] { return makeHostInputs(opt); });
    parallel::ThreadPool pool(kHostThreads);
    const graph::Csr &a = in.adjacency;
    rec.notes["graph"] = "rmat scale " + std::to_string(opt.tiny ? 10 : 16) +
                         ", |V|=" + std::to_string(a.numVertices()) +
                         ", nnz=" + std::to_string(a.numEdges());

    // Warm-up: first-touch the pool scratch and the output buffers.
    tensor::DenseMatrix ref_out = in.model.infer(a, in.features, pool);
    for (int w = 0; w < 2; ++w)
        in.model.infer(a, in.features, pool);
    const uint64_t ref_digest = matrixDigest(ref_out);
    const std::string ref_error =
        runGuarded([&] { return checkAgainstReference(in, ref_out); });

    const auto check = [&](const tensor::DenseMatrix &out) -> std::string {
        if (!ref_error.empty())
            return ref_error;
        if (matrixDigest(out) != ref_digest)
            return "logits differ from the checked first pass";
        return {};
    };

    measureLoop(opt.seconds, opt.trace ? 2 : 1, [&](size_t i) {
        if (opt.trace && i % 2 == 1) {
            tensor::DenseMatrix out;
            const double t0 = nowS();
            std::string err = runGuarded([&] {
                out = replayInfer(in, pool, tracer, i);
                return std::string();
            });
            rec.tracedOpS.push_back(nowS() - t0);
            if (err.empty())
                err = check(out);
            rec.operation(err.empty() ? err : "replayed infer: " + err);
            return;
        }
        tensor::DenseMatrix out;
        const double t0 = nowS();
        std::string err = runGuarded([&] {
            out = in.model.infer(a, in.features, pool);
            return std::string();
        });
        rec.opS.push_back(nowS() - t0);
        if (err.empty())
            err = check(out);
        rec.operation(err);
    });

    if (!opt.trace)
        return;
    const SpanStats st(tracer.spans());
    const auto dims = in.model.config().layerDims();
    const double v = static_cast<double>(a.numVertices());
    const double nnz = static_cast<double>(a.numEdges());
    double spmm_flop = 0.0, spmm_bytes = 0.0, gemm_flop = 0.0;
    for (const auto &d : dims) {
        const double k = static_cast<double>(d.outDim);
        spmm_flop += 2.0 * nnz * k;
        spmm_bytes += (v + 1.0) * sizeof(graph::EdgeId) +
                      nnz * (sizeof(graph::VertexId) + sizeof(graph::Value)) +
                      2.0 * v * k * sizeof(float);
        gemm_flop += 2.0 * v * static_cast<double>(d.inDim) * k;
    }
    const double spmm_s = st.medianTotal("kernels.spmmVertexParallel");
    const double gemm_s = st.medianTotal("tensor.denseMmBlocked");
    const double relu_s = st.medianTotal("tensor.reluInPlace");
    const double infer_s = median(rec.opS);
    const double replay_s = st.medianTotal("core.infer.replay");
    rec.metric("spmm.host_ms", spmm_s * 1e3, "ms");
    rec.metric("kernels.spmm_gflops", spmm_flop / spmm_s / 1e9, "GFLOP/s");
    rec.metric("kernels.spmm_gbps_computed", spmm_bytes / spmm_s / 1e9,
               "GB/s");
    rec.metric("kernels.gemm_gflops", gemm_flop / gemm_s / 1e9, "GFLOP/s");
    rec.metric("kernels.spmm_share", spmm_s / replay_s, "fraction");
    rec.metric("kernels.gemm_share", gemm_s / replay_s, "fraction");
    rec.metric("tensor.relu_share", relu_s / replay_s, "fraction");
    rec.metric("core.glue_share",
               (infer_s - spmm_s - gemm_s - relu_s) / infer_s, "fraction");
    rec.metric("trace.overhead", median(rec.tracedOpS) / infer_s, "ratio");
}

// ------------------------------------------------- simulator inputs

std::vector<piuma::GcnSimLayer>
gcnLayers()
{
    return {{100, 256}, {256, 256}, {256, 47}};
}

graph::Csr
makeProductsProxy(const Options &opt)
{
    const graph::EdgeId edges = opt.tiny ? graph::EdgeId{1} << 12
                                         : graph::EdgeId{1} << 16;
    return graph::buildProxy(graph::datasetByName("products"), edges,
                             opt.seed)
        .adjacency;
}

graph::Csr
setupGraph(const Options &opt, Record &rec,
           const std::function<graph::Csr()> &make)
{
    graph::Csr g = setUp(rec, make);
    rec.notes["graph"] = "|V|=" + std::to_string(g.numVertices()) +
                         ", nnz=" + std::to_string(g.numEdges()) +
                         (opt.tiny ? " (tiny)" : "");
    return g;
}

/** Empty when simulateGcn's totals equal the sum of its layers. */
std::string
gcnTotalsError(const piuma::GcnSimResult &r,
               const std::vector<piuma::SpmmRunStats> &spmm,
               const std::vector<piuma::DenseRunStats> &dense,
               const std::string &what)
{
    if (spmm.size() != r.spmmLayers.size() ||
        dense.size() != r.denseLayers.size())
        return what + ": layer count differs";
    double spmm_ns = 0.0, dense_ns = 0.0;
    uint64_t events = 0;
    for (size_t l = 0; l < spmm.size(); ++l) {
        dense_ns += dense[l].makespanNs;
        spmm_ns += spmm[l].makespanNs;
        events += dense[l].simEvents + spmm[l].simEvents;
        if (spmmDigest(spmm[l]) != spmmDigest(r.spmmLayers[l]) ||
            denseDigest(dense[l]) != denseDigest(r.denseLayers[l]))
            return what + ": layer " + std::to_string(l) + " stats differ";
        const std::string c = conservationError(
            spmm[l], what + " layer " + std::to_string(l));
        if (!c.empty())
            return c;
    }
    if (spmm_ns != r.spmmNs || dense_ns != r.denseNs ||
        spmm_ns + dense_ns != r.totalNs || events != r.simEvents)
        return what + ": totals differ from the sum of the layers";
    return {};
}

uint64_t
gcnDigest(const piuma::GcnSimResult &r)
{
    uint64_t h = fold(fold(fold(kFnv1aOffset, r.totalNs), r.spmmNs),
                      r.denseNs);
    h = fold(h, r.simEvents);
    for (const auto &s : r.spmmLayers)
        h = spmmDigest(s, h);
    for (const auto &d : r.denseLayers)
        h = denseDigest(d, h);
    return h;
}


struct SweepResult
{
    double wallS = 0.0;
    std::vector<double> pointS; ///< wall time of each point
    std::string checkpointDigest;
    std::string error;
};

/**
 * One fig8 sweep: the 6 middle points (cores 1..32, K=256) and the 3
 * right points (16 cores, K 8/64/256), as fig8_strong_scaling enqueues
 * them, run through SweepRunner into a JSONL checkpoint.
 */
SweepResult
runFig8Sweep(const graph::Csr &g, const std::string &ckpt_path,
             bool monitors, Tracer &tracer, uint64_t pass, long parent,
             bool tiny)
{
    struct PointSpec
    {
        std::string key;
        unsigned cores;
        unsigned k;
    };
    std::vector<PointSpec> specs;
    for (unsigned cores : {1u, 2u, 4u, 8u, 16u, 32u})
        specs.push_back({"middle/cores=" + std::to_string(cores), cores,
                         tiny ? 16u : 256u});
    for (unsigned k : {8u, 64u, 256u})
        specs.push_back({"right/k=" + std::to_string(k), 16u,
                         tiny ? k / 8 : k});

    SweepResult res;
    res.pointS.assign(specs.size(), 0.0);
    std::vector<sim::MonitorHub> hubs(specs.size());

    parallel::SweepOptions so;
    so.jobs = kHostThreads;
    so.domains = 1;
    parallel::SweepRunner runner(so);
    SpanScope root(tracer, "parallel.SweepRunner.run", pass, parent);
    const long root_id = root.id();
    for (size_t i = 0; i < specs.size(); ++i) {
        runner.add(specs[i].key, [&, i](const parallel::SweepContext &ctx) {
            const PointSpec &p = specs[i];
            SpanScope s(tracer, "piuma.simulateSpmm.point", pass, root_id,
                        ctx.worker + 1);
            const double t0 = nowS();
            piuma::PiumaConfig pcfg;
            pcfg.numCores = p.cores;
            sim::SimControls controls = *ctx.controls;
            controls.monitor = monitors ? &hubs[i] : nullptr;
            const piuma::SpmmRunStats sim = piuma::simulateSpmm(
                g, p.k, pcfg, piuma::SpmmAlgorithm::Dma, ctx.session,
                &controls);
            res.pointS[i] = nowS() - t0;
            const std::string c = conservationError(sim, p.key);
            if (!c.empty())
                throw SimError(c);
            return JsonlCheckpoint::Values{
                {"gflops", sim.gflops},
                {"makespan_ns", sim.makespanNs},
                {"bytes_read", sim.bytesRead},
                {"issue_util", sim.issueUtilization},
                {"dma_util", sim.dmaUtilization},
                {"mem_util", sim.maxMemUtilization},
                {"net_util", sim.netUtilization},
                {"nnz_reads", static_cast<double>(sim.nnzReads)},
                {"nnz_stall_ns", sim.nnzStallNs},
                {"dma_queue_stall_ns", sim.dmaQueueStallNs},
                {"stall_mem_ns", sim.stallMemoryNs},
                {"stall_net_ns", sim.stallNetworkNs},
                {"cp_events", static_cast<double>(sim.criticalPathEvents)},
                {"cp_parallelism", sim.criticalPathParallelism},
                {"latency_hiding", sim.latencyHidingEffectiveness},
                {"exposed_stall_ns", sim.exposedStallNs},
            };
        });
    }
    const double t0 = nowS();
    {
        JsonlCheckpoint ckpt(ckpt_path, false);
        const auto outcome = runner.run(ckpt);
        if (outcome.failed != 0 || outcome.computed != specs.size()) {
            res.error = "sweep: " + std::to_string(outcome.failed) +
                        " point(s) failed";
            if (!outcome.errors.empty())
                res.error += ": " + outcome.errors.front().message;
        }
    }
    res.wallS = nowS() - t0;

    std::ifstream in(ckpt_path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    res.checkpointDigest = hashHex(fnv1a64(bytes));
    return res;
}

// --------------------------------------------------------- sim-suite

/** One sim-suite operation: its three phases, timed, and their outputs. */
struct SuitePass
{
    double gcnS = 0.0;
    double deepS = 0.0;
    std::vector<piuma::SpmmRunStats> gcnSpmm;
    std::vector<piuma::DenseRunStats> gcnDense;
    piuma::SpmmRunStats serial;
    piuma::SpmmRunStats parallel;
    SweepResult sweep;
};

/**
 * The simulator workload. One operation runs three phases back to
 * back, each with at most kHostThreads host threads:
 *   1. simulateGcn, DMA SpMM, 16 simulated cores (shallow calendar);
 *   2. simulateSpmm, K=16, 128 simulated cores (deep calendar), once
 *      serial (1 domain) and once on kHostThreads Parallel domains;
 *   3. the 9 fig8 points through SweepRunner, a MonitorHub per point.
 * Traced runs cycle through three kinds of operation: untraced;
 * traced, with simulateGcn replayed as its per-layer calls; untraced
 * with the sweep's monitors off (for monitor.overhead).
 */
void
runSimSuite(const Options &opt, Record &rec, Tracer &tracer)
{
    const graph::Csr g =
        setupGraph(opt, rec, [&] { return makeProductsProxy(opt); });
    const auto layers = gcnLayers();
    piuma::PiumaConfig gcn_cfg;
    gcn_cfg.numCores = 16;
    piuma::PiumaConfig deep_cfg;
    deep_cfg.numCores = opt.tiny ? 16 : 128;
    constexpr unsigned kDeepK = 16;
    sim::SimControls serial;
    serial.domains = 1;
    serial.domainMode = sim::DomainMode::Sequenced;
    sim::SimControls par;
    par.domains = kHostThreads;
    par.domainMode = sim::DomainMode::Parallel;
    const std::string ckpt_path =
        opt.workDir + "/sweep-seed" + std::to_string(opt.seed) + "-" +
        std::to_string(::getpid()) + ".jsonl";

    // Every operation must reproduce the first one's outputs.
    const auto same = [&](const std::string &name,
                          const std::string &hex) -> std::string {
        const auto [it, fresh] = rec.digests.emplace(name, hex);
        return fresh || it->second == hex
                   ? std::string()
                   : name + ": outputs differ between operations";
    };

    piuma::GcnSimResult last_gcn;
    std::vector<SuitePass> traced;
    std::vector<double> sweep_with, sweep_without;
    Tracer off(false);
    measureLoop(opt.seconds, opt.trace ? 3 : 1, [&](size_t i) {
        const size_t kind = opt.trace ? i % 3 : 0;
        Tracer &t = kind == 1 ? tracer : off;
        SuitePass p;
        const double t0 = nowS();
        std::string err = runGuarded([&] {
            SpanScope root(t, "sim-suite.pass", i);
            double s = nowS();
            if (kind != 1) {
                last_gcn = piuma::simulateGcn(g, layers, gcn_cfg,
                                              piuma::SpmmAlgorithm::Dma);
            } else {
                SpanScope r(t, "piuma.simulateGcn.replay", i, root.id());
                for (const auto &l : layers) {
                    {
                        SpanScope d(t, "piuma.simulateDenseMm", i, r.id());
                        p.gcnDense.push_back(piuma::simulateDenseMm(
                            g.numVertices(), l.kIn, l.kOut, gcn_cfg));
                    }
                    SpanScope d(t, "piuma.simulateSpmm", i, r.id());
                    p.gcnSpmm.push_back(piuma::simulateSpmm(
                        g, static_cast<unsigned>(l.kOut), gcn_cfg,
                        piuma::SpmmAlgorithm::Dma));
                }
            }
            p.gcnS = nowS() - s;
            s = nowS();
            {
                SpanScope d(t, "sim.deep_pair", i, root.id());
                {
                    SpanScope x(t, "piuma.simulateSpmm.serial", i, d.id());
                    p.serial = piuma::simulateSpmm(g, kDeepK, deep_cfg,
                                                   piuma::SpmmAlgorithm::Dma,
                                                   nullptr, &serial);
                }
                SpanScope x(t, "piuma.simulateSpmm.parallel", i, d.id());
                p.parallel = piuma::simulateSpmm(g, kDeepK, deep_cfg,
                                                 piuma::SpmmAlgorithm::Dma,
                                                 nullptr, &par);
            }
            p.deepS = nowS() - s;
            p.sweep = runFig8Sweep(g, ckpt_path, kind != 2, t, i, root.id(),
                                   opt.tiny);
            return std::string();
        });
        const double op_s = nowS() - t0;

        if (err.empty()) {
            err = kind == 1 ? gcnTotalsError(last_gcn, p.gcnSpmm, p.gcnDense,
                                             "replayed simulateGcn layers")
                            : gcnTotalsError(last_gcn, last_gcn.spmmLayers,
                                             last_gcn.denseLayers,
                                             "simulateGcn");
        }
        if (err.empty() && kind != 1)
            err = same("sim-gcn", hashHex(gcnDigest(last_gcn)));
        if (err.empty())
            err = spmmMismatch(p.serial, p.parallel);
        if (err.empty())
            err = conservationError(p.serial, "deep serial");
        if (err.empty())
            err = same("sim-deep", hashHex(spmmDigest(p.serial)));
        if (err.empty())
            err = p.sweep.error;
        if (err.empty() && kind != 2)
            err = same("fig8-sweep", p.sweep.checkpointDigest);
        rec.operation(err);
        if (!err.empty())
            return;
        if (kind == 0) {
            rec.opS.push_back(op_s);
            rec.series["gcn_s"].push_back(p.gcnS);
            rec.series["deep_s"].push_back(p.deepS);
            rec.series["sweep_s"].push_back(p.sweep.wallS);
            sweep_with.push_back(p.sweep.wallS);
        } else if (kind == 1) {
            rec.tracedOpS.push_back(op_s);
            traced.push_back(std::move(p));
        } else {
            sweep_without.push_back(p.sweep.wallS);
        }
    });
    std::remove(ckpt_path.c_str());

    if (!opt.trace || traced.empty() || sweep_without.empty())
        return; // a failed operation is already counted
    const SpanStats st(tracer.spans());
    const double op_s = median(rec.tracedOpS);

    // Phase 1: the shallow-calendar GCN.
    const double replay_s = st.medianTotal("piuma.simulateGcn.replay");
    const double spmm_s = st.medianTotal("piuma.simulateSpmm");
    const double dense_s = st.medianTotal("piuma.simulateDenseMm");
    uint64_t spmm_events = 0, dense_events = 0, cp_events = 0, peak = 0;
    uint64_t mem = 0, remote = 0;
    for (const auto &s : last_gcn.spmmLayers) {
        spmm_events += s.simEvents;
        cp_events += s.criticalPathEvents;
        mem += s.memAccesses;
        remote += s.memRemoteAccesses;
        peak = std::max(peak, s.peakEventQueueDepth);
    }
    for (const auto &d : last_gcn.denseLayers) {
        dense_events += d.simEvents;
        peak = std::max(peak, d.peakEventQueueDepth);
    }
    const double nnz = static_cast<double>(g.numEdges());
    const double ser = st.medianTotal("piuma.simulateSpmm.serial");
    const double pll = st.medianTotal("piuma.simulateSpmm.parallel");
    const double points = st.medianTotal("piuma.simulateSpmm.point");
    rec.metric("spmm.host_ms", (spmm_s + ser + pll + points) * 1e3, "ms");
    rec.metric("piuma.spmm_host_share", spmm_s / replay_s, "fraction");
    rec.metric("piuma.dense_host_share", dense_s / replay_s, "fraction");
    rec.metric("piuma.spmm_events", static_cast<double>(spmm_events),
               "count");
    rec.metric("piuma.dense_events", static_cast<double>(dense_events),
               "count");
    rec.metric("piuma.events_per_edge",
               static_cast<double>(spmm_events) /
                   (nnz * static_cast<double>(layers.size())),
               "events/edge");
    rec.metric("piuma.remote_fraction",
               mem ? static_cast<double>(remote) / static_cast<double>(mem)
                   : 0.0,
               "fraction");
    rec.metric("sim.events_per_s",
               static_cast<double>(spmm_events + dense_events) /
                   (spmm_s + dense_s),
               "1/s");
    rec.metric("sim.peak_pending", static_cast<double>(peak), "count");
    rec.metric("sim.cp_parallelism",
               cp_events ? static_cast<double>(spmm_events) /
                               static_cast<double>(cp_events)
                         : 0.0,
               "ratio");

    // Phase 2: the deep calendar, serial and Parallel.
    const SuitePass &last = traced.back();
    const double deep_ev = static_cast<double>(last.serial.simEvents);
    rec.metric("sim.deep.events_per_edge", deep_ev / nnz, "events/edge");
    rec.metric("sim.deep.events_per_s", deep_ev / ser, "1/s");
    rec.metric("sim.deep.peak_pending",
               static_cast<double>(last.serial.peakEventQueueDepth), "count");
    rec.metric("sim.deep.parallel_events_per_s", deep_ev / pll, "1/s");
    rec.metric("sim.deep.parallel_peak_pending",
               static_cast<double>(last.parallel.peakEventQueueDepth),
               "count");
    rec.metric("sim.domain.speedup", ser / pll, "ratio");

    // Phase 3: the sweep.
    std::vector<double> point_max, busy, gcn_share, deep_share, sweep_share;
    for (const SuitePass &t : traced) {
        const SweepResult &r = t.sweep;
        double sum = 0.0, mx = 0.0;
        for (const double p : r.pointS) {
            sum += p;
            mx = std::max(mx, p);
        }
        point_max.push_back(mx / r.wallS);
        busy.push_back(sum / (kHostThreads * r.wallS));
        const double total = t.gcnS + t.deepS + r.wallS;
        gcn_share.push_back(t.gcnS / total);
        deep_share.push_back(t.deepS / total);
        sweep_share.push_back(r.wallS / total);
    }
    rec.metric("sweep.points_per_s",
               static_cast<double>(last.sweep.pointS.size()) /
                   median(sweep_with),
               "1/s");
    rec.metric("sweep.point_max_share", median(point_max), "fraction");
    rec.metric("sweep.busy_fraction", median(busy), "fraction");
    rec.metric("monitor.overhead", median(sweep_with) / median(sweep_without),
               "ratio");
    rec.metric("sim.gcn_share", median(gcn_share), "fraction");
    rec.metric("sim.deep_share", median(deep_share), "fraction");
    rec.metric("sim.sweep_share", median(sweep_share), "fraction");
    rec.metric("trace.overhead", op_s / median(rec.opS), "ratio");
}

// --------------------------------------------------------------- main

/** Per-layer metrics every traced record carries; 0 = layer not run. */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m{
        {"spmm.host_ms", "ms"},
        {"kernels.spmm_gflops", "GFLOP/s"},
        {"kernels.spmm_gbps_computed", "GB/s"},
        {"kernels.gemm_gflops", "GFLOP/s"},
        {"kernels.spmm_share", "fraction"},
        {"kernels.gemm_share", "fraction"},
        {"tensor.relu_share", "fraction"},
        {"core.glue_share", "fraction"},
        {"piuma.spmm_host_share", "fraction"},
        {"piuma.dense_host_share", "fraction"},
        {"piuma.spmm_events", "count"},
        {"piuma.dense_events", "count"},
        {"piuma.events_per_edge", "events/edge"},
        {"piuma.remote_fraction", "fraction"},
        {"sim.events_per_s", "1/s"},
        {"sim.peak_pending", "count"},
        {"sim.cp_parallelism", "ratio"},
        {"sim.deep.events_per_edge", "events/edge"},
        {"sim.deep.events_per_s", "1/s"},
        {"sim.deep.peak_pending", "count"},
        {"sim.deep.parallel_events_per_s", "1/s"},
        {"sim.deep.parallel_peak_pending", "count"},
        {"sim.domain.speedup", "ratio"},
        {"sweep.points_per_s", "1/s"},
        {"sweep.point_max_share", "fraction"},
        {"sweep.busy_fraction", "fraction"},
        {"monitor.overhead", "ratio"},
        {"sim.gcn_share", "fraction"},
        {"sim.deep_share", "fraction"},
        {"sim.sweep_share", "fraction"},
        {"trace.overhead", "ratio"},
    };
    return m;
}

int
benchMain(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    Record rec;
    Tracer tracer(opt.trace);
    if (opt.workload == "host-infer")
        runHostInfer(opt, rec, tracer);
    else if (opt.workload == "sim-suite")
        runSimSuite(opt, rec, tracer);
    else
        throw std::invalid_argument("unknown workload: " + opt.workload);

    rec.metric("setup_s", median(rec.setupS), "s");
    // The shared host slows whole stretches of a run, so the headline
    // timing is a low percentile: the operation time of the code itself
    // with the least interference. The median and the tail stay in the
    // record for reading.
    rec.metric("op_p10_ms", quantile(rec.opS, 0.1) * 1e3, "ms");
    rec.metric("op_p50_ms", median(rec.opS) * 1e3, "ms");
    // The highest percentile with at least 10 samples beyond it: p90
    // from 100 operations up, else no percentile above the median has.
    rec.metric("op_tail_ms",
               (rec.opS.size() >= 100 ? quantile(rec.opS, 0.9)
                                      : median(rec.opS)) *
                   1e3,
               "ms");
    rec.metric("peak_rss_mb", peakRssMb(), "MB");
    if (opt.trace) {
        for (const auto &[name, unit] : perLayerMetrics()) {
            if (!rec.metrics.count(name))
                rec.metric(name, 0.0, unit);
        }
        const SpanStats st(tracer.spans());
        for (const auto &kv : st.total) {
            rec.spans[kv.first] = {st.medianTotal(kv.first) * 1e3,
                                   st.medianSelf(kv.first) * 1e3};
        }
        tracer.writeChromeTrace(opt.workDir + "/trace-" + opt.workload +
                                "-seed" + std::to_string(opt.seed) +
                                ".json");
    }
    printRecord(opt, rec);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
