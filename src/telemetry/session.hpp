/**
 * @file
 * A telemetry session: the registry + trace writer bundle a
 * bench binary (or test) owns for one invocation. Simulation entry
 * points accept `Session *` (null = telemetry off, the default) and,
 * once a run has returned, record its kernel span and counters from
 * the run's stats; the owner writes the trace JSON and metrics CSV
 * when done.
 *
 * The session also runs the global clock: every kernel executes on a
 * fresh engine starting at t=0, and beginKernel()/endKernel()
 * concatenate those runs on one timeline so a multi-kernel bench
 * (e.g. a fig8 sweep) loads into Perfetto as consecutive spans.
 */
#ifndef PGCN_TELEM_SESSION_HPP
#define PGCN_TELEM_SESSION_HPP

#include <string>
#include <string_view>

#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace pgcn::telemetry {

/** Track ids used in emitted traces. */
namespace tracks {
/** The kernel-span track. */
constexpr uint32_t kKernels = 0;
/** Sweep-worker tid stride: worker w's tracks live at
 *  (w + 1) * kWorkerStride + original tid (see Session::mergeWorker). */
constexpr uint32_t kWorkerStride = 1u << 16;
} // namespace tracks

/** One bench invocation's telemetry context (see file comment). */
class Session
{
  public:
    Session();

    /** The metric registry. */
    Registry &registry() { return registry_; }

    /** The trace accumulator. */
    TraceWriter &trace() { return trace_; }
    const TraceWriter &trace() const { return trace_; }

    /**
     * Open a kernel span named @p name and return the global-time
     * offset of the run's t=0.
     */
    double beginKernel(std::string_view name);

    /**
     * Close the current kernel span after a run of @p makespan_ns and
     * advance the global clock past it.
     */
    void endKernel(double makespan_ns);

    /** Global-time offset of the currently running kernel. */
    double runOffsetNs() const { return offsetNs_; }

    /**
     * Fold a sweep worker's session into this one: trace events move
     * to worker-tagged tracks ("w<index>/" prefix, tids shifted by
     * (index + 1) * tracks::kWorkerStride), and registry
     * counters/histograms are summed/merged. Call after the worker
     * has finished (no open kernel span); merge workers in index order
     * for a deterministic combined trace.
     */
    void mergeWorker(const Session &worker, size_t worker_index);

    /** Write the Chrome-trace JSON to @p path. */
    void writeTrace(const std::string &path) const;

    /**
     * Write the metrics CSV to @p path: final counter values and
     * histogram summaries (count/sum/min/max/p50/p95/p99) under a
     * `t_ns,metric,value` header, stamped at the end of the global
     * timeline.
     */
    void writeMetricsCsv(const std::string &path) const;

  private:
    Registry registry_;
    TraceWriter trace_;
    double offsetNs_ = 0.0;
    TraceWriter::NameId currentKernel_ = 0;
    bool kernelOpen_ = false;
};

} // namespace pgcn::telemetry

#endif // PGCN_TELEM_SESSION_HPP
