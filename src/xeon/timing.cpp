#include "xeon/timing.hpp"

#include <algorithm>
#include <cmath>

namespace pgcn::xeon {

double
streamBandwidth(const XeonConfig &cfg, unsigned threads)
{
    cfg.validate();
    PGCN_ASSERT(threads >= 1, "bandwidth needs at least one thread");
    threads = std::min(threads, cfg.logicalCores());

    const double per_socket_threads =
        static_cast<double>(threads) / cfg.sockets;
    const double ramp =
        per_socket_threads * cfg.perThreadBandwidthGBps;
    double socket_bw = std::min(cfg.socketStreamBandwidthGBps, ramp);

    // Hyper-threading region: oversubscribed contexts thrash the
    // memory controllers; measured bandwidth drops toward
    // (1 - penalty) at full logical occupancy.
    const double physical = cfg.coresPerSocket;
    if (per_socket_threads > physical) {
        const double over =
            (per_socket_threads - physical) /
            (physical * (cfg.hyperThreadsPerCore - 1.0));
        socket_bw *= 1.0 - cfg.hyperThreadPenalty * std::min(1.0, over);
    }
    return socket_bw * cfg.sockets;
}

double
featureCacheHitRate(const XeonConfig &cfg, uint64_t num_vertices,
                    uint64_t k, bool skewed)
{
    const double working_set =
        static_cast<double>(num_vertices) * static_cast<double>(k) * 4.0;
    const double cache = cfg.cacheBytesPerSocket * cfg.sockets;
    if (working_set <= 0.0)
        return 1.0;
    const double resident = std::min(1.0, cache / working_set);
    if (!skewed || resident >= 1.0)
        return resident;
    // Power-law reuse: caching the hottest `resident` fraction of
    // rows covers a disproportionate share of edge endpoints.
    return std::pow(resident, cfg.cacheSkewExponent);
}

double
spmmTrafficBytes(const XeonConfig &cfg, const model::SpmmWorkload &w,
                 bool skewed)
{
    const model::ElementSizes sizes;
    const double v = static_cast<double>(w.numVertices);
    const double e = static_cast<double>(w.numEdges);
    const double k = static_cast<double>(w.embeddingDim);

    const double csr = (v + 1.0) * sizes.rowIndex + e * sizes.colIndex +
                       e * sizes.nonZero;
    const double hit =
        featureCacheHitRate(cfg, w.numVertices, w.embeddingDim, skewed);
    // Compulsory: each of the |V| rows is read once. Reuse: the
    // remaining (|E| - |V|) accesses hit with probability `hit`.
    const double reuse_accesses = std::max(0.0, e - v);
    const double feature =
        v * k * sizes.feature +
        reuse_accesses * k * sizes.feature * (1.0 - hit);
    const double write = v * k * sizes.feature;
    return csr + feature + write;
}

double
spmmTimeNs(const XeonConfig &cfg, const model::SpmmWorkload &w,
           unsigned threads, bool skewed)
{
    const double bw =
        streamBandwidth(cfg, threads) * cfg.gatherEfficiency;
    // Cache-resident reuse is served from the LLC — cheaper than
    // DRAM, but 80 threads contending on a shared cache is not free.
    const double hit =
        featureCacheHitRate(cfg, w.numVertices, w.embeddingDim, skewed);
    const double reuse_accesses = std::max(
        0.0, static_cast<double>(w.numEdges) -
                 static_cast<double>(w.numVertices));
    const double cached_bytes = reuse_accesses *
                                static_cast<double>(w.embeddingDim) *
                                4.0 * hit;
    return spmmTrafficBytes(cfg, w, skewed) / bw +
           cached_bytes / cfg.llcBandwidthGBps + cfg.frameworkOverheadNs;
}

double
denseMmTimeNs(const XeonConfig &cfg, uint64_t num_vertices, uint64_t k_in,
              uint64_t k_out, unsigned threads)
{
    const double v = static_cast<double>(num_vertices);
    const double flop =
        2.0 * v * static_cast<double>(k_in) * static_cast<double>(k_out);
    const double bytes =
        v * (static_cast<double>(k_in) + static_cast<double>(k_out)) * 4.0;
    const double peak =
        cfg.peakCoreGflops() * std::min(threads, cfg.physicalCores()) *
        cfg.denseEfficiency;
    return model::rooflineTimeNs(flop, bytes, peak,
                                 streamBandwidth(cfg, threads)) +
           cfg.frameworkOverheadNs;
}

double
glueTimeNs(const XeonConfig &cfg, uint64_t num_vertices, uint64_t k,
           unsigned threads)
{
    const double bytes = 2.0 * static_cast<double>(num_vertices) *
                         static_cast<double>(k) * 4.0;
    // If the activations fit in cache the pass runs at cache speed
    // (approximated as 4x DRAM bandwidth); otherwise at DRAM speed.
    const double hit = featureCacheHitRate(cfg, num_vertices, k);
    const double bw = streamBandwidth(cfg, threads) * (1.0 + 3.0 * hit);
    return bytes / bw + cfg.frameworkOverheadNs;
}

double
randomWalkStepsPerNs(const XeonConfig &cfg, unsigned threads)
{
    cfg.validate();
    PGCN_ASSERT(threads >= 1, "random walk needs at least one thread");
    const double cores = std::min(threads, cfg.physicalCores());
    // Two dependent accesses per step; chasesOverlappedPerCore
    // independent walks in flight per core.
    const double per_core =
        cfg.chasesOverlappedPerCore /
        (2.0 * cfg.randomAccessLatencyNs);
    return cores * per_core;
}

} // namespace pgcn::xeon
