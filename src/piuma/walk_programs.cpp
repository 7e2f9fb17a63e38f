#include "piuma/walk_programs.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "piuma/machine.hpp"

namespace pgcn::piuma {

using graph::Csr;
using graph::EdgeId;
using graph::VertexId;

namespace {

/**
 * One hardware thread executing its share of walks. Each step:
 *  1. read row offsets of the current vertex (8-byte pair, one line),
 *  2. read the randomly selected column entry (another line),
 * both dependent, both stall-on-use — the latency-bound pattern.
 */
sim::Process
walkThreadProc(Machine &m, const Csr &csr, unsigned tid,
               uint64_t walk_begin, uint64_t walk_end, uint32_t walk_length,
               uint64_t seed, uint64_t &steps_done, double &step_latency_sum)
{
    const unsigned core = m.coreOfThread(tid);
    sim::Engine &eng = m.engineOfCore(core);
    auto &issue = m.mtpIssue[m.mtpOfThread(tid)];
    Rng rng(seed ^ (0xabcdef1234ULL + tid));
    const VertexId n = csr.numVertices();
    const auto &offsets = csr.rowOffsets();
    const auto &cols = csr.cols();
    const uint64_t rows_per_line = m.cfg.cacheLineBytes / 8;
    const uint64_t edges_per_line = m.cfg.cacheLineBytes / 4;

    for (uint64_t w = walk_begin; w < walk_end; ++w) {
        VertexId v = static_cast<VertexId>(rng.uniformInt(n));
        for (uint32_t step = 0; step < walk_length; ++step) {
            const sim::SimTime step_start = eng.now();

            // Dependent load 1: row-offset pair of v — a native
            // 16-byte uncached access (PIUMA's memory path is
            // optimised for sub-line requests; a pointer chase must
            // not pay line-fill bandwidth).
            co_await issue.transfer(2.0);
            co_await m.memory.read(core, m.lineSlice(v / rows_per_line),
                                   16.0);

            const EdgeId deg = offsets[v + 1] - offsets[v];
            if (deg == 0) {
                // Dead end: restart the walk at a random vertex.
                v = static_cast<VertexId>(rng.uniformInt(n));
            } else {
                // Dependent load 2: the chosen neighbour's column
                // entry (cannot issue before load 1 returns).
                const EdgeId e = offsets[v] + rng.uniformInt(deg);
                co_await issue.transfer(2.0);
                co_await m.memory.read(
                    core, m.lineSlice(e / edges_per_line), 8.0);
                v = cols[e];
            }
            ++steps_done;
            step_latency_sum += eng.now() - step_start;
        }
    }
}

} // namespace

WalkRunStats
simulateRandomWalk(const Csr &csr, uint64_t num_walks,
                   uint32_t walk_length, const PiumaConfig &cfg,
                   uint64_t seed)
{
    cfg.validate();
    if (csr.numVertices() == 0)
        PGCN_THROW(ShapeError, "cannot walk an empty graph");
    if (num_walks == 0 || walk_length == 0)
        PGCN_THROW(ConfigError, "walk batch must be non-empty");

    // One domain: the walk microbenchmark has no sharding knob.
    Machine m(cfg, sim::DomainSet::Options{}, nullptr);
    uint64_t steps_done = 0;
    double step_latency_sum = 0.0;
    const unsigned total_threads = cfg.totalThreads();
    for (unsigned tid = 0; tid < total_threads; ++tid) {
        const uint64_t begin = num_walks * tid / total_threads;
        const uint64_t end = num_walks * (tid + 1) / total_threads;
        if (begin < end) {
            walkThreadProc(m, csr, tid, begin, end, walk_length, seed,
                           steps_done, step_latency_sum);
        }
    }

    const sim::SimTime makespan = m.run();

    WalkRunStats stats;
    stats.makespanNs = makespan;
    stats.totalSteps = steps_done;
    stats.stepsPerNs =
        makespan > 0 ? static_cast<double>(steps_done) / makespan : 0.0;
    stats.avgStepLatencyNs =
        steps_done ? step_latency_sum / static_cast<double>(steps_done)
                   : 0.0;
    stats.memUtilization = m.memory.averageSliceUtilization(makespan);
    m.fillHostStats(stats);
    return stats;
}

} // namespace pgcn::piuma
