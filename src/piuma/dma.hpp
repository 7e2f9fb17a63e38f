/**
 * @file
 * The per-core PIUMA DMA offload engine (Section IV-B of the paper).
 *
 * MTP threads enqueue descriptors; the engine consumes them in
 * arrival order ("DMA requests from threads belonging to the same
 * core are directed to the same DMA engine and are serialized on the
 * order of arrival"). Descriptors are processed pipelined with
 * respect to memory latency: the engine only waits for bandwidth
 * service, which is what makes the DMA SpMM latency tolerant.
 *
 * Supported operations mirror the paper's kernel:
 *  - ReadMulAcc: atomically read a feature vector from (possibly
 *    remote) DRAM, multiply by the vectorised edge weight, copy-add
 *    into the scratchpad accumulation buffer.
 *  - WriteRow: atomically write a finished accumulation buffer to the
 *    output row in DRAM.
 *  - Terminate: shut the engine down (simulation bookkeeping).
 */
#ifndef PGCN_PIUMA_DMA_HPP
#define PGCN_PIUMA_DMA_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "piuma/memory.hpp"
#include "sim/queue.hpp"

namespace pgcn::piuma {

/** One DMA descriptor. */
struct DmaDescriptor
{
    enum class Op : uint8_t
    {
        ReadMulAcc, ///< read + vector multiply + copy-add to SPAD
        WriteRow,   ///< atomic write of an output row
        Terminate,  ///< end-of-work marker
    };

    Op op;
    unsigned slice; ///< DRAM slice holding the feature/output row
    double bytes;   ///< payload size (K * sizeof(float))
};

/** Aggregate statistics of one DMA engine. */
struct DmaStats
{
    uint64_t descriptors = 0; ///< data descriptors processed
    double busyNs = 0.0;      ///< time spent processing descriptors
    double bytesMoved = 0.0;  ///< payload bytes transferred

    /// Descriptor re-issues after injected faults.
    uint64_t retries = 0;
    /// Descriptor timeouts fired (== retries unless a fault was
    /// unrecoverable).
    uint64_t timeoutsFired = 0;
    /// Engine time in recovery: descriptor timeout/backoff plus the
    /// recovery portion of its memory transfers.
    double recoveryNs = 0.0;
    /// A descriptor (or one of its memory transfers) exhausted the
    /// retry budget; failedDetail names the earliest such failure and
    /// failedWhenNs is its detection time (a lost transfer's final
    /// response, an abandoned descriptor's final timeout). The engine
    /// keeps draining its queue so producers never block forever;
    /// Machine::run raises SimFaultError after the run.
    bool failed = false;
    std::string failedDetail;
    sim::SimTime failedWhenNs = 0.0;
};

/**
 * One core's DMA engine: a bounded descriptor queue plus a consumer
 * process.
 */
class DmaEngine
{
  public:
    /**
     * @param engine Simulation engine.
     * @param memory DGAS memory system.
     * @param cfg System configuration.
     * @param core The core this engine belongs to.
     */
    DmaEngine(sim::Engine &engine, MemorySystem &memory,
              const PiumaConfig &cfg, unsigned core)
        : engine_(engine), memory_(memory), cfg_(cfg), core_(core),
          queue_(engine, cfg.dmaQueueDepth,
                 "core" + std::to_string(core) + ".dma.queue")
    {
    }

    /** The descriptor queue producers push into. */
    sim::BoundedQueue<DmaDescriptor> &queue() { return queue_; }

    /** Engine statistics (valid after the simulation drains). */
    const DmaStats &stats() const { return stats_; }

    /**
     * Attach a fault injector perturbing the per-descriptor dispatch
     * overhead and, when a DMA drop rate is configured, failing
     * descriptors that the engine then re-issues under the modeled
     * timeout/backoff protocol. Null (the default) keeps the
     * configured overhead and a fault-free descriptor stream. The
     * injector is only forked: this engine draws from its own
     * kSaltDma child stream, so concurrent engines in different
     * domains never contend on shared generator state.
     */
    void
    setFaultInjector(sim::FaultInjector *faults)
    {
        if (faults != nullptr)
            stream_.emplace(faults->fork(kSaltDma | core_));
        else
            stream_.reset();
    }

    /**
     * Mirror per-descriptor busy spans (the same spans stats_.busyNs
     * accumulates) onto @p timeline. Null detaches.
     */
    void
    attachMonitor(sim::Timeline *timeline)
    {
        monitor_ = timeline;
    }

    /**
     * Start the consumer process. Runs until a Terminate descriptor
     * arrives. Call exactly once per simulation. Transfer responses
     * arrive over the memory system's request/response event path —
     * a remote slice's completion reaches this engine as a keyed
     * cross-domain response event, so no explicit domain routing is
     * needed here any more.
     */
    sim::Process run();

  private:
    /** Cold path: record an unrecoverable fault detected at @p when
     *  (earliest detection wins; the run throws anyway). */
    void noteFault(const std::string &detail, sim::SimTime when);

    sim::Engine &engine_;
    MemorySystem &memory_;
    const PiumaConfig &cfg_;
    unsigned core_;
    sim::BoundedQueue<DmaDescriptor> queue_;
    DmaStats stats_;
    sim::Timeline *monitor_ = nullptr; ///< busy-span occupancy sink
    /// Forked per-engine fault stream; empty keeps the configured
    /// dispatch overhead and a fault-free descriptor stream.
    std::optional<sim::FaultStream> stream_;
};

} // namespace pgcn::piuma

#endif // PGCN_PIUMA_DMA_HPP
