/**
 * @file
 * The metric registry: named monotonic counters and fixed-bucket
 * histograms shared by every instrumented component.
 *
 * Names are hierarchical dot-paths (`piuma.dma.busy_ns`),
 * so downstream tooling can group by prefix. The registration path
 * (map lookup) runs once per component per run; instrumented hot
 * paths hold a Counter* / Histogram* and pay one pointer-null check
 * plus an add when telemetry is enabled, nothing when it is not.
 *
 * Thread-safety: none. The simulator is single-threaded by design
 * (see sim/engine.hpp); the registry inherits that contract.
 */
#ifndef PGCN_TELEM_REGISTRY_HPP
#define PGCN_TELEM_REGISTRY_HPP

#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace pgcn::telemetry {

/**
 * A named monotonic counter. Components accumulate into it directly;
 * consumers read the cumulative value (or deltas between reads).
 */
class Counter
{
  public:
    /** Accumulate @p delta (negative deltas are a caller bug). */
    void add(double delta) { value_ += delta; }

    /** Accumulate 1. */
    void increment() { value_ += 1.0; }

    /** Cumulative value since registration. */
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * The registry. Counters and histograms live for the registry's
 * lifetime and merge across simulation runs.
 */
class Registry
{
  public:
    /**
     * Find-or-create the counter called @p name. The returned
     * reference is stable for the registry's lifetime.
     */
    Counter &counter(std::string_view name);

    /**
     * Find-or-create a histogram. The bucket shape is fixed by the
     * first registration; later calls with the same name return the
     * existing histogram regardless of the requested shape.
     *
     * @param name Metric name.
     * @param lo Lower bound of the bucketed range.
     * @param hi Upper bound of the bucketed range.
     * @param buckets Bucket count (excluding under/overflow).
     */
    Histogram &histogram(std::string_view name, double lo, double hi,
                         size_t buckets = 64);

    /** Value of counter @p name, or 0 if it was never registered. */
    double counterValue(std::string_view name) const;

    /** Histogram @p name, or nullptr if never registered. */
    const Histogram *findHistogram(std::string_view name) const;

    /** Visit (name, counter) in lexicographic name order. */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        for (const auto &[name, c] : counters_)
            fn(name, c);
    }

    /** Visit (name, histogram) in lexicographic name order. */
    template <typename Fn>
    void
    forEachHistogram(Fn &&fn) const
    {
        for (const auto &[name, h] : histograms_)
            fn(name, h);
    }

    /**
     * Fold @p other into this registry: counters are summed,
     * histograms merged bucket-wise (shape is taken from @p other on
     * first sight of a name). Used to consolidate per-worker
     * registries after a parallel sweep.
     */
    void mergeFrom(const Registry &other);

    /** Number of registered counters. */
    size_t counterCount() const { return counters_.size(); }

  private:
    // Node-based maps: references handed to components stay valid as
    // the registry grows. Lexicographic iteration keeps every CSV /
    // summary dump deterministic.
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

} // namespace pgcn::telemetry

#endif // PGCN_TELEM_REGISTRY_HPP
