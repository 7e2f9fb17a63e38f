/**
 * @file
 * A small OpenMP-style parallel runtime: a persistent thread pool and
 * parallel-for with static or dynamic scheduling. The paper's CPU
 * baseline is "vertex-parallel with dynamic load balancing using
 * OpenMP"; this runtime provides the equivalent primitives without an
 * OpenMP dependency.
 */
#ifndef PGCN_PARALLEL_THREAD_POOL_HPP
#define PGCN_PARALLEL_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "kernels/simd.hpp"
#include "parallel/numa.hpp"

namespace pgcn::parallel {

/** Loop-scheduling policy for parallelFor. */
enum class Schedule
{
    Static,  ///< contiguous equal-size range per worker
    Dynamic, ///< chunked work stealing from a shared counter
};

/** NUMA placement policy, selected by the PGCN_NUMA env variable. */
enum class NumaMode
{
    Off,  ///< no pinning, no placement (default)
    Auto, ///< pin workers per node when the host has 2+ NUMA nodes
};

/**
 * A fixed-size pool of worker threads executing fork-join parallel
 * loops. Workers persist across loops, so repeated kernel launches
 * (one per GCN layer) do not pay thread-creation cost.
 */
class ThreadPool
{
  public:
    /**
     * Create a pool.
     *
     * NUMA placement is opt-in via the PGCN_NUMA environment variable
     * ("auto" enables it, anything else — including unset — keeps it
     * off; unrecognised values warn once). With auto on a host that
     * actually has 2+ NUMA nodes, worker threads are split into
     * contiguous per-node groups, each worker is pinned to its node's
     * cpuset, and scratchFloats buffers are first-touched by their
     * pinned owner so they allocate node-local. On single-node hosts
     * (laptops, CI containers) auto detects nothing to do and the
     * pool behaves identically to PGCN_NUMA=off — same thread count,
     * same scheduling, bit-identical kernel results.
     *
     * @param num_threads Worker count including the calling thread;
     *        0 selects the hardware concurrency.
     */
    explicit ThreadPool(unsigned num_threads = 0);

    /** Join and destroy all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads that participate in loops (>= 1). */
    unsigned numThreads() const { return numThreads_; }

    /**
     * True when NUMA placement is active: PGCN_NUMA=auto AND the host
     * has 2+ NUMA nodes AND the pool has 2+ threads. False means the
     * pool is running in the default (unpinned) mode.
     */
    bool numaPinned() const { return numaPinned_; }

    /** NUMA nodes the pool spans (1 when placement is off). */
    unsigned
    numNumaNodes() const
    {
        return numaPinned_ ? topology_.numNodes() : 1;
    }

    /**
     * NUMA node that thread @p tid is placed on (0 when placement is
     * off). Threads are assigned to nodes in contiguous blocks, so
     * the static chunks of parallelFor/spmmNnzBalanced line up with
     * node boundaries.
     */
    unsigned
    numaNodeOf(unsigned tid) const
    {
        return numaPinned_
                   ? static_cast<unsigned>(
                         static_cast<uint64_t>(tid) * topology_.numNodes() /
                         numThreads_)
                   : 0;
    }

    /**
     * Execute body(thread_id, begin, end) over [0, count) split across
     * the pool. Blocks until all iterations complete. The calling
     * thread participates as thread 0.
     *
     * Static scheduling hands each thread one contiguous slice;
     * dynamic scheduling hands out @p chunk iterations at a time from
     * a shared atomic counter (the OpenMP `schedule(dynamic, chunk)`
     * equivalent the paper's CPU SpMM uses for load balance).
     *
     * @param count Total iteration count.
     * @param schedule Scheduling policy.
     * @param chunk Chunk size for dynamic scheduling.
     * @param body Callable (unsigned thread_id, uint64_t begin,
     *        uint64_t end) invoked on half-open iteration ranges.
     */
    void parallelFor(uint64_t count, Schedule schedule, uint64_t chunk,
                     const std::function<void(unsigned, uint64_t, uint64_t)>
                         &body);

    /**
     * Run fn(thread_id) once on every thread in the pool.
     */
    void
    parallelRegion(const std::function<void(unsigned)> &fn);

    /**
     * Per-thread kernel scratch: a 64-byte-aligned float buffer owned
     * by the pool, grown on demand and reused across kernel launches,
     * so per-call workspaces (the edge-parallel SpMM accumulator) cost
     * no allocation after the first use.
     *
     * Thread-safety contract: each thread may only request its OWN
     * slot (@p tid must be the id the pool handed the caller), which
     * makes growth race-free without locking.
     *
     * @param tid Calling thread's pool id (< numThreads()).
     * @param elems Minimum float capacity required.
     * @return Pointer to at least @p elems floats, 64-byte aligned.
     *         Contents are unspecified (not zeroed).
     */
    float *scratchFloats(unsigned tid, uint64_t elems);

  private:
    void workerLoop(unsigned id);

    /** One lazily-grown scratch buffer per pool thread. */
    struct ScratchSlot
    {
        kernels::simd::AlignedBuffer buf;
        uint64_t elems = 0;
    };

    unsigned numThreads_;
    bool numaPinned_ = false;
    NumaTopology topology_; ///< populated only when numaPinned_
    std::vector<std::thread> workers_;
    std::vector<ScratchSlot> scratch_;

    std::mutex mutex_;
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    uint64_t generation_ = 0;
    unsigned remaining_ = 0;
    bool stopping_ = false;
    std::function<void(unsigned)> task_;
};

} // namespace pgcn::parallel

#endif // PGCN_PARALLEL_THREAD_POOL_HPP
