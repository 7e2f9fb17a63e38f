/**
 * @file
 * The time-series sampler: an Engine::Observer that snapshots every
 * registered gauge each sampling period of *simulated* time and
 * accumulates long-format rows (t_ns, metric, value) for CSV export,
 * mirroring each point into the trace as a Perfetto counter track.
 *
 * Rate gauges (GaugeKind::Rate) report the delta of a cumulative
 * quantity divided by the elapsed simulated interval, turning
 * busy-nanosecond accumulators into utilisations and byte counters
 * into GB/s — the bandwidth/occupancy timelines of the paper's
 * Figs. 6-8 discussions.
 */
#ifndef PGCN_TELEM_SAMPLER_HPP
#define PGCN_TELEM_SAMPLER_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace pgcn::telemetry {

/** Periodic gauge sampler (see file comment). */
class Sampler : public sim::Engine::Observer
{
  public:
    /**
     * @param registry Gauge source (and counter store).
     * @param trace Optional trace to mirror samples into as counter
     *        events; may be null.
     * @param period_ns Simulated nanoseconds between samples.
     */
    Sampler(Registry &registry, TraceWriter *trace, double period_ns);

    /** Simulated ns between samples. */
    double periodNs() const { return periodNs_; }

    /**
     * Establish the global-time offset of the upcoming run (each
     * kernel runs on a fresh engine starting at t=0; the session
     * concatenates them on one clock) and reset per-run gauge state.
     */
    void beginRun(double offset_ns);

    /** Engine::Observer hook: snapshot all gauges at @p now. */
    sim::SimTime onSample(sim::SimTime now, sim::Engine &engine) override;

    /** Rows recorded so far (across all runs). */
    size_t rowCount() const { return rows_.size(); }

    /**
     * Append @p other's recorded rows with @p prefix on every metric
     * name (worker-tagging, matching the trace counter tracks). Rows
     * keep their own timestamps; merged output groups rows by worker,
     * each group chronological.
     */
    void mergeFrom(const Sampler &other, std::string_view prefix);

    /**
     * Write all samples as long-format CSV (`t_ns,metric,value`
     * header included).
     */
    void writeCsv(std::ostream &os) const;

  private:
    /** One recorded sample. */
    struct Row
    {
        double tNs;
        double value;
        TraceWriter::NameId name;
    };

    Registry &registry_;
    TraceWriter *trace_;
    TraceWriter names_; ///< standalone interner when trace_ is null
    double periodNs_;
    double offsetNs_ = 0.0;   ///< global time of the current run's t=0
    double lastSampleNs_ = 0.0; ///< run-local time of previous sample
    std::vector<Row> rows_;

    TraceWriter &interner() { return trace_ ? *trace_ : names_; }
    const TraceWriter &interner() const { return trace_ ? *trace_ : names_; }
};

} // namespace pgcn::telemetry

#endif // PGCN_TELEM_SAMPLER_HPP
