#include "piuma/gcn_sim.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <system_error>
#include <thread>

#include "common/error.hpp"
#include "piuma/memory.hpp"

namespace pgcn::piuma {

GcnHostPlan
gcnHostPlan(const PiumaConfig &cfg, size_t layers, unsigned host_threads)
{
    const unsigned host = std::max(1u, host_threads);
    const auto workers = static_cast<unsigned>(
        std::clamp<size_t>(layers, 1, host));
    return {workers, MemorySystem::autoDomainCount(cfg, host / workers)};
}

namespace {

/**
 * Run @p layer(0 .. n-1) on @p workers host threads (the caller is
 * one of them) and rethrow the lowest failing index's exception once
 * every worker has joined. Indices are claimed in increasing order,
 * so every index below a failed one was claimed before it and runs to
 * completion; indices claimed after a failure are skipped. One worker
 * is the plain layer loop on the calling thread.
 */
template <class Layer>
void
runLayers(size_t n, unsigned workers, const Layer &layer)
{
    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    auto work = [&] {
        for (size_t l; !failed.load() && (l = next.fetch_add(1)) < n;) {
            try {
                layer(l);
            } catch (...) {
                errors[l] = std::current_exception();
                failed.store(true);
            }
        }
    };
    {
        std::vector<std::jthread> helpers; // joined at the end of scope
        helpers.reserve(workers - 1);
        try {
            for (unsigned w = 1; w < workers; ++w)
                helpers.emplace_back(work);
        } catch (const std::system_error &) {
            // Fewer helpers only means less overlap: the caller
            // drains the remaining layers itself.
        }
        work();
    }
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace

GcnSimResult
simulateGcn(const graph::Csr &csr, const std::vector<GcnSimLayer> &layers,
            const PiumaConfig &cfg, SpmmAlgorithm alg,
            telemetry::Session *session)
{
    if (layers.empty())
        PGCN_THROW(ConfigError, "GCN needs at least one layer");
    const auto wall_start = std::chrono::steady_clock::now();
    const size_t n = layers.size();
    const GcnHostPlan plan =
        gcnHostPlan(cfg, n, MemorySystem::hostThreads());
    // Each SpMM layer runs on auto domains within the plan's cap: one
    // per group of whole dies when that is legal, one engine
    // otherwise. The output is the same at any count.
    sim::SimControls layer_plan;
    layer_plan.domains = plan.layerDomains;
    layer_plan.domainMode = sim::DomainMode::Auto;

    GcnSimResult result;
    result.denseLayers.resize(n);
    result.spmmLayers.resize(n);
    auto layer = [&](size_t l) {
        result.denseLayers[l] = simulateDenseMm(
            csr.numVertices(), layers[l].kIn, layers[l].kOut, cfg);
        result.spmmLayers[l] =
            simulateSpmm(csr, static_cast<unsigned>(layers[l].kOut), cfg,
                         alg, nullptr, &layer_plan);
    };
    runLayers(n, plan.workers, layer);

    // Reduce and record in layer order: the same sums and the same
    // trace as a layer-by-layer loop.
    for (size_t l = 0; l < n; ++l) {
        const DenseRunStats &dense = result.denseLayers[l];
        const SpmmRunStats &spmm = result.spmmLayers[l];
        if (session != nullptr) {
            recordRun(*session, dense, layers[l].kIn, layers[l].kOut);
            recordRun(*session, spmm, alg,
                      static_cast<unsigned>(layers[l].kOut));
        }
        result.denseNs += dense.makespanNs;
        result.spmmNs += spmm.makespanNs;
        result.simEvents += dense.simEvents + spmm.simEvents;
        result.peakEventQueueDepth =
            std::max({result.peakEventQueueDepth,
                      dense.peakEventQueueDepth,
                      spmm.peakEventQueueDepth});
    }
    result.totalNs = result.spmmNs + result.denseNs;
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
    result.eventsPerSec =
        result.wallSeconds > 0.0
            ? static_cast<double>(result.simEvents) / result.wallSeconds
            : 0.0;
    return result;
}

} // namespace pgcn::piuma
