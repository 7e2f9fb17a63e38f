/**
 * @file
 * Google-benchmark microbenchmarks for the functional host kernels:
 * SpMM variants (reference / vertex / edge / NNZ-balanced),
 * the packed SIMD dense GEMM, a whole GcnModel::infer pass, graph
 * generation and normalisation.
 * Run under PGCN_SIMD=scalar for the scalar baselines. These measure
 * real wall-clock throughput of the library's executable kernels on
 * this machine (as opposed to the modelled platforms of the figure
 * benches). One row, BM_SimulateSpmm, instead times the simulator
 * itself: the host cost of one discrete-event PIUMA SpMM point, most
 * of it the memory protocol's request and response events; the
 * BM_EngineHold rows time the bare event engine at a fixed calendar
 * depth (a hold model).
 *
 * Every compute bench reports FLOPS (measured) next to roofline_FLOPS
 * — the src/xeon analytical model evaluated for a single core of THIS
 * host — so the gap between achieved and model-predicted throughput
 * is visible in one row (see EXPERIMENTS.md for the walkthrough).
 *
 * The binary refuses to be quoted carelessly: when compiled without
 * NDEBUG (asserts on, no meaningful timings) it prints a loud banner
 * and tags the benchmark context, so results files recorded from a
 * debug build are self-incriminating.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "core/gcn.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "kernels/simd.hpp"
#include "kernels/spmm.hpp"
#include "piuma/spmm_programs.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "tensor/dense_mm.hpp"
#include "xeon/config.hpp"
#include "xeon/timing.hpp"

namespace {

using namespace pgcn;

graph::Csr
benchGraph(uint32_t scale)
{
    return graph::normalizedAdjacency(graph::generateRmat(
        scale, (graph::EdgeId{1} << scale) * 8, graph::rmatSkewed(), 3));
}

/**
 * The src/xeon analytical model re-parameterised for one core of this
 * host: single socket/core/thread, no framework overhead (these are
 * raw kernels, not a framework), bandwidth capped at what one thread
 * can extract. This is the roofline the measured numbers are compared
 * against.
 */
xeon::XeonConfig
hostRoofline()
{
    xeon::XeonConfig cfg; // start from the paper machine
    cfg.sockets = 1;
    cfg.coresPerSocket = 1;
    cfg.hyperThreadsPerCore = 1;
    cfg.clockGhz = 2.7;
    cfg.socketStreamBandwidthGBps = cfg.perThreadBandwidthGBps;
    cfg.frameworkOverheadNs = 0.0;
    return cfg;
}

/** Measured FLOPS plus the single-core roofline prediction. */
void
setFlopsCounters(benchmark::State &state, double flops_per_iter,
                 double model_ns)
{
    state.counters["FLOPS"] = benchmark::Counter(
        flops_per_iter, benchmark::Counter::kIsIterationInvariantRate,
        benchmark::Counter::kIs1000);
    if (model_ns > 0) {
        // flop / ns == GFLOP/s; scale to FLOP/s for unit parity with
        // the measured counter.
        state.counters["roofline_FLOPS"] = benchmark::Counter(
            flops_per_iter / model_ns * 1e9,
            benchmark::Counter::kDefaults, benchmark::Counter::kIs1000);
    }
}

void
setSpmmCounters(benchmark::State &state, const graph::Csr &csr,
                uint64_t k)
{
    const auto flops =
        2.0 * static_cast<double>(csr.numEdges()) * static_cast<double>(k);
    const model::SpmmWorkload w{csr.numVertices(), csr.numEdges(), k};
    setFlopsCounters(state, flops,
                     xeon::spmmTimeNs(hostRoofline(), w, 1,
                                      /*skewed=*/true));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(csr.numEdges()));
}

void
BM_SpmmReference(benchmark::State &state)
{
    const auto csr = benchGraph(static_cast<uint32_t>(state.range(0)));
    const auto k = static_cast<uint64_t>(state.range(1));
    tensor::DenseMatrix h(csr.numVertices(), k);
    h.fillRandom(1);
    tensor::DenseMatrix out;
    for (auto _ : state) {
        kernels::spmmReference(csr, h, out);
        benchmark::DoNotOptimize(out.data());
    }
    setSpmmCounters(state, csr, k);
}
BENCHMARK(BM_SpmmReference)
    ->Args({12, 32})
    ->Args({14, 32})
    ->Args({14, 128});

void
BM_SpmmVertexParallel(benchmark::State &state)
{
    const auto csr = benchGraph(static_cast<uint32_t>(state.range(0)));
    const auto k = static_cast<uint64_t>(state.range(1));
    tensor::DenseMatrix h(csr.numVertices(), k);
    h.fillRandom(1);
    tensor::DenseMatrix out;
    parallel::ThreadPool pool;
    for (auto _ : state) {
        kernels::spmmVertexParallel(csr, h, out, pool);
        benchmark::DoNotOptimize(out.data());
    }
    setSpmmCounters(state, csr, k);
}
BENCHMARK(BM_SpmmVertexParallel)
    ->Args({12, 32})
    ->Args({14, 32})
    ->Args({14, 128})
    ->UseRealTime();

void
BM_SpmmEdgeParallel(benchmark::State &state)
{
    const auto csr = benchGraph(static_cast<uint32_t>(state.range(0)));
    const auto k = static_cast<uint64_t>(state.range(1));
    tensor::DenseMatrix h(csr.numVertices(), k);
    h.fillRandom(1);
    tensor::DenseMatrix out;
    parallel::ThreadPool pool;
    for (auto _ : state) {
        kernels::spmmEdgeParallel(csr, h, out, pool);
        benchmark::DoNotOptimize(out.data());
    }
    setSpmmCounters(state, csr, k);
}
BENCHMARK(BM_SpmmEdgeParallel)
    ->Args({12, 32})
    ->Args({14, 32})
    ->UseRealTime();

void
BM_SpmmNnzBalanced(benchmark::State &state)
{
    const auto csr = benchGraph(static_cast<uint32_t>(state.range(0)));
    const auto k = static_cast<uint64_t>(state.range(1));
    tensor::DenseMatrix h(csr.numVertices(), k);
    h.fillRandom(1);
    tensor::DenseMatrix out;
    parallel::ThreadPool pool;
    for (auto _ : state) {
        kernels::spmmNnzBalanced(csr, h, out, pool);
        benchmark::DoNotOptimize(out.data());
    }
    setSpmmCounters(state, csr, k);
}
BENCHMARK(BM_SpmmNnzBalanced)
    ->Args({12, 32})
    ->Args({14, 32})
    ->Args({14, 128})
    ->UseRealTime();

void
setGemmCounters(benchmark::State &state, uint64_t n)
{
    const double flops = 2.0 * static_cast<double>(n) *
                         static_cast<double>(n) * static_cast<double>(n);
    setFlopsCounters(state, flops,
                     xeon::denseMmTimeNs(hostRoofline(), n, n, n, 1));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(2 * n * n * n));
}

/** Packed GEMM on @p threads pool workers (0: inline, no pool). */
void
BM_DenseMmBlocked(benchmark::State &state, unsigned threads)
{
    const auto n = static_cast<uint64_t>(state.range(0));
    tensor::DenseMatrix a(n, n), b(n, n), out;
    a.fillRandom(1);
    b.fillRandom(2);
    std::unique_ptr<parallel::ThreadPool> pool;
    if (threads > 0)
        pool = std::make_unique<parallel::ThreadPool>(threads);
    for (auto _ : state) {
        tensor::denseMmBlocked(a, b, out, pool.get());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    setGemmCounters(state, n);
}

void
BM_DenseMmBlocked(benchmark::State &state)
{
    BM_DenseMmBlocked(state, 0);
}
BENCHMARK(BM_DenseMmBlocked)->Arg(64)->Arg(256);
// The pooled row is named BM_DenseMmBlocked/pool4/<n>, so the
// BM_DenseMmBlocked/256 serial row keeps its name. Wall-clock rates:
// CPU time would count the calling thread's share only.
BENCHMARK_CAPTURE(BM_DenseMmBlocked, pool4, 4u)->Arg(256)->UseRealTime();

/**
 * The tall m x k . k x n GEMM of host inference's last layer on a
 * 4-thread pool: 65,536 rows, 128 -> 47. On AVX-512 its last panel is
 * 15 columns, no wider than one register.
 */
void
BM_DenseMmTall(benchmark::State &state)
{
    const auto m = static_cast<uint64_t>(state.range(0));
    const auto k = static_cast<uint64_t>(state.range(1));
    const auto n = static_cast<uint64_t>(state.range(2));
    tensor::DenseMatrix a(m, k), b(k, n), out;
    a.fillRandom(1);
    b.fillRandom(2);
    parallel::ThreadPool pool(4);
    for (auto _ : state) {
        tensor::denseMmBlocked(a, b, out, &pool);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    setFlopsCounters(state,
                     2.0 * static_cast<double>(m) * static_cast<double>(k) *
                         static_cast<double>(n),
                     xeon::denseMmTimeNs(hostRoofline(), m, k, n, 1));
}
BENCHMARK(BM_DenseMmTall)
    ->Name("BM_DenseMmTall/pool4")
    ->Args({65536, 128, 47})
    ->UseRealTime();

/**
 * One steady-state GcnModel::infer pass, end to end: the host row the
 * kernel rows above add up to. The warm-up pass before the loop pays
 * the one-time first-touch of the calling thread's layer buffers.
 */
void
BM_GcnInfer(benchmark::State &state)
{
    const auto csr = benchGraph(14);
    core::GcnModelConfig cfg;
    cfg.inputDim = 100;
    cfg.hiddenDim = 128;
    cfg.outputDim = 47;
    cfg.numLayers = 3;
    cfg.order = core::LayerOrder::TransformThenAggregate;
    const core::GcnModel model(cfg);
    tensor::DenseMatrix features(csr.numVertices(), cfg.inputDim);
    features.fillRandom(1);
    parallel::ThreadPool pool(4);
    model.infer(csr, features, pool);
    for (auto _ : state) {
        auto logits = model.infer(csr, features, pool);
        benchmark::DoNotOptimize(logits.data());
        benchmark::ClobberMemory();
    }
}
// Real time, as for the pooled GEMM row: CPU time would count only the
// calling thread's share.
BENCHMARK(BM_GcnInfer)->Name("BM_GcnInfer/pool4")->UseRealTime();

/**
 * Host time of one simulated PIUMA point: DMA SpMM with K = 256 on 16
 * cores over a 2^14-edge products proxy, serial engine. Nearly all of
 * its events are memory-protocol requests and responses, so this row
 * tracks the event engine and the DGAS model outside perfbench;
 * events_per_s is the simulator's dispatch rate.
 */
void
BM_SimulateSpmm(benchmark::State &state)
{
    const graph::Csr csr =
        graph::buildProxy(graph::datasetByName("products"),
                          graph::EdgeId{1} << 14)
            .adjacency;
    piuma::PiumaConfig cfg;
    cfg.numCores = 16;
    uint64_t events = 0;
    for (auto _ : state) {
        const piuma::SpmmRunStats s = piuma::simulateSpmm(
            csr, 256, cfg, piuma::SpmmAlgorithm::Dma);
        events += s.simEvents;
        benchmark::DoNotOptimize(s.makespanNs);
    }
    state.counters["events_per_s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateSpmm)
    ->Name("BM_SimulateSpmm/products14/dma/cores16/k256")
    ->Unit(benchmark::kMillisecond);

/// Mean reschedule delay of the hold model's events, in simulated ns.
constexpr double kHoldMeanNs = 100.0;

/** One hold-model engine and the draws its events reschedule by. */
struct HoldModel
{
    sim::Engine engine;
    Rng rng{7};

    double
    nextDelay()
    {
        return 2.0 * kHoldMeanNs * rng.uniform();
    }
};

/** A hold-model event: when it fires it reschedules itself. */
struct HoldEvent
{
    HoldModel *model;

    void
    operator()() const
    {
        model->engine.schedule(model->nextDelay(), sim::Callback(*this));
    }
};

/**
 * The classic hold model on sim::Engine: @p pending self-rescheduling
 * callbacks with uniform delays, so the calendar holds a constant
 * depth. events_per_s is the engine's dispatch rate at that depth
 * alone, with no memory protocol behind the events. Each iteration
 * runs ~2^20 events, after one untimed warm-up window.
 */
void
BM_EngineHold(benchmark::State &state, size_t pending)
{
    HoldModel model;
    model.engine.reserveEvents(pending);
    for (size_t i = 0; i < pending; ++i) {
        model.engine.schedule(model.nextDelay(),
                              sim::Callback(HoldEvent{&model}));
    }
    const double window = kHoldMeanNs * static_cast<double>(1u << 20) /
                          static_cast<double>(pending);
    // One untimed window first, so the calendar has settled its
    // geometry to the depth before timing starts.
    model.engine.runUntil(window);
    const uint64_t before = model.engine.eventsProcessed();
    for (auto _ : state)
        model.engine.runUntil(model.engine.now() + window);
    const auto events =
        static_cast<double>(model.engine.eventsProcessed() - before);
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.counters["events_per_s"] =
        benchmark::Counter(events, benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_EngineHold, 1K, size_t{1} << 10)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EngineHold, 64K, size_t{1} << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EngineHold, 256K, size_t{1} << 18)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EngineHold, 1M, size_t{1} << 20)
    ->Unit(benchmark::kMillisecond);

void
BM_RmatGeneration(benchmark::State &state)
{
    const auto scale = static_cast<uint32_t>(state.range(0));
    const graph::EdgeId edges = (graph::EdgeId{1} << scale) * 8;
    for (auto _ : state) {
        auto coo =
            graph::generateRmat(scale, edges, graph::rmatSkewed(), 5);
        benchmark::DoNotOptimize(coo.numEdges());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(edges));
}
BENCHMARK(BM_RmatGeneration)->Arg(12)->Arg(16);

void
BM_Normalization(benchmark::State &state)
{
    const auto scale = static_cast<uint32_t>(state.range(0));
    auto coo = graph::generateRmat(
        scale, (graph::EdgeId{1} << scale) * 8, graph::rmatSkewed(), 5);
    for (auto _ : state) {
        auto csr = graph::normalizedAdjacency(coo);
        benchmark::DoNotOptimize(csr.numEdges());
    }
}
BENCHMARK(BM_Normalization)->Arg(12)->Arg(14);

} // namespace

int
main(int argc, char **argv)
{
#ifdef NDEBUG
    benchmark::AddCustomContext("build_assertions", "off (NDEBUG)");
#else
    std::fprintf(
        stderr,
        "\n"
        "*****************************************************\n"
        "*** WARNING: micro_kernels compiled WITHOUT NDEBUG **\n"
        "*** (asserts active). Timings below are NOT valid  **\n"
        "*** performance numbers. Rebuild with              **\n"
        "***   cmake -DCMAKE_BUILD_TYPE=Release             **\n"
        "*** before recording results.                      **\n"
        "*****************************************************\n"
        "\n");
    benchmark::AddCustomContext("build_assertions",
                                "ON -- DEBUG BUILD, DO NOT RECORD");
#endif
    benchmark::AddCustomContext(
        "simd_tier",
        pgcn::kernels::simd::tierName(pgcn::kernels::simd::activeTier()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
