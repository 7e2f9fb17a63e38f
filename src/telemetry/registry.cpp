#include "telemetry/registry.hpp"

namespace pgcn::telemetry {

Counter &
Registry::counter(std::string_view name)
{
    const auto it = counters_.find(name);
    if (it != counters_.end())
        return it->second;
    return counters_.emplace(std::string(name), Counter{}).first->second;
}

Histogram &
Registry::histogram(std::string_view name, double lo, double hi,
                    size_t buckets)
{
    const auto it = histograms_.find(name);
    if (it != histograms_.end())
        return it->second;
    return histograms_
        .emplace(std::string(name), Histogram(lo, hi, buckets))
        .first->second;
}

double
Registry::counterValue(std::string_view name) const
{
    const auto it = counters_.find(name);
    return it != counters_.end() ? it->second.value() : 0.0;
}

const Histogram *
Registry::findHistogram(std::string_view name) const
{
    const auto it = histograms_.find(name);
    return it != histograms_.end() ? &it->second : nullptr;
}

void
Registry::mergeFrom(const Registry &other)
{
    for (const auto &[name, c] : other.counters_)
        counter(name).add(c.value());
    for (const auto &[name, h] : other.histograms_)
        histogram(name, h.lo(), h.hi(), h.numBuckets()).merge(h);
}

} // namespace pgcn::telemetry
