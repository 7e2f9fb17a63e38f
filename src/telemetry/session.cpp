#include "telemetry/session.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace pgcn::telemetry {

namespace {

/** Emit one `t_ns,metric,value` CSV row. */
void
csvRow(std::ostream &os, double t_ns, const std::string &metric, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g,", t_ns);
    os << buf << metric << ",";
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    os << buf << "\n";
}

} // namespace

Session::Session()
{
    trace_.setProcessName("pgcn-sim");
    trace_.setThreadName(tracks::kKernels, "kernels");
}

double
Session::beginKernel(std::string_view name)
{
    PGCN_ASSERT(!kernelOpen_, "beginKernel() while a kernel span is open");
    currentKernel_ = trace_.intern(name);
    trace_.begin(offsetNs_, currentKernel_, tracks::kKernels);
    kernelOpen_ = true;
    return offsetNs_;
}

void
Session::endKernel(double makespan_ns)
{
    PGCN_ASSERT(kernelOpen_, "endKernel() without a matching beginKernel()");
    PGCN_ASSERT(makespan_ns >= 0.0, "negative makespan " << makespan_ns);
    trace_.end(offsetNs_ + makespan_ns, currentKernel_, tracks::kKernels);
    offsetNs_ += makespan_ns;
    kernelOpen_ = false;
}

void
Session::mergeWorker(const Session &worker, size_t worker_index)
{
    PGCN_ASSERT(!kernelOpen_ && !worker.kernelOpen_,
                "mergeWorker() with an open kernel span");
    const std::string prefix = "w" + std::to_string(worker_index) + "/";
    const uint32_t tid_offset =
        static_cast<uint32_t>(worker_index + 1) * tracks::kWorkerStride;
    trace_.mergeFrom(worker.trace_, tid_offset, prefix);
    registry_.mergeFrom(worker.registry_);
    // Final-counter rows in the metrics CSV stamp at the end of the
    // longest worker timeline.
    offsetNs_ = std::max(offsetNs_, worker.offsetNs_);
}

void
Session::writeTrace(const std::string &path) const
{
    trace_.writeFile(path);
}

void
Session::writeMetricsCsv(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        PGCN_THROW(IoError, "cannot open metrics CSV for writing: " << path);

    os << "t_ns,metric,value\n";
    const double end = offsetNs_;
    registry_.forEachCounter(
        [&](const std::string &name, const Counter &counter) {
            csvRow(os, end, name, static_cast<double>(counter.value()));
        });
    registry_.forEachHistogram(
        [&](const std::string &name, const Histogram &hist) {
            csvRow(os, end, name + ".count",
                   static_cast<double>(hist.count()));
            if (hist.count() == 0)
                return;
            csvRow(os, end, name + ".sum", hist.sum());
            csvRow(os, end, name + ".min", hist.min());
            csvRow(os, end, name + ".max", hist.max());
            csvRow(os, end, name + ".p50", hist.percentile(50.0));
            csvRow(os, end, name + ".p95", hist.percentile(95.0));
            csvRow(os, end, name + ".p99", hist.percentile(99.0));
        });
}

} // namespace pgcn::telemetry
