#include "piuma/gcn_sim.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace pgcn::piuma {

GcnSimResult
simulateGcn(const graph::Csr &csr, const std::vector<GcnSimLayer> &layers,
            const PiumaConfig &cfg, SpmmAlgorithm alg,
            telemetry::Session *session)
{
    if (layers.empty())
        PGCN_THROW(ConfigError, "GCN needs at least one layer");
    GcnSimResult result;
    result.spmmLayers.reserve(layers.size());
    result.denseLayers.reserve(layers.size());
    // The SpMM layers run on auto domains: one per group of whole dies
    // when that is legal, one engine otherwise or when a telemetry
    // session is attached. The output is the same at any count.
    sim::SimControls auto_plan;
    auto_plan.domains = 0;
    auto_plan.domainMode = sim::DomainMode::Auto;

    for (const GcnSimLayer &layer : layers) {
        const DenseRunStats dense = simulateDenseMm(
            csr.numVertices(), layer.kIn, layer.kOut, cfg, session);
        const SpmmRunStats spmm =
            simulateSpmm(csr, static_cast<unsigned>(layer.kOut), cfg, alg,
                         session, &auto_plan);
        result.denseNs += dense.makespanNs;
        result.spmmNs += spmm.makespanNs;
        result.simEvents += dense.simEvents + spmm.simEvents;
        result.wallSeconds += dense.wallSeconds + spmm.wallSeconds;
        result.peakEventQueueDepth =
            std::max({result.peakEventQueueDepth,
                      dense.peakEventQueueDepth,
                      spmm.peakEventQueueDepth});
        result.denseLayers.push_back(dense);
        result.spmmLayers.push_back(spmm);
    }
    result.totalNs = result.spmmNs + result.denseNs;
    result.eventsPerSec =
        result.wallSeconds > 0.0
            ? static_cast<double>(result.simEvents) / result.wallSeconds
            : 0.0;
    return result;
}

} // namespace pgcn::piuma
