/**
 * @file
 * Tests for the core GCN library: model configuration, functional
 * inference correctness (against a hand-rolled reference), breakdown
 * bookkeeping, and the platform models' Fig. 9/10 findings.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/breakdown.hpp"
#include "core/gcn.hpp"
#include "core/gcn_config.hpp"
#include "core/platforms.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "kernels/spmm.hpp"
#include "tensor/dense_mm.hpp"

namespace {

using namespace pgcn;
using namespace pgcn::core;

TEST(GcnConfig, ThreeLayerDims)
{
    GcnModelConfig cfg;
    cfg.inputDim = 100;
    cfg.hiddenDim = 64;
    cfg.outputDim = 47;
    cfg.numLayers = 3;
    const auto dims = cfg.layerDims();
    ASSERT_EQ(dims.size(), 3u);
    EXPECT_EQ(dims[0].inDim, 100u);
    EXPECT_EQ(dims[0].outDim, 64u);
    EXPECT_EQ(dims[1].inDim, 64u);
    EXPECT_EQ(dims[1].outDim, 64u);
    EXPECT_EQ(dims[2].inDim, 64u);
    EXPECT_EQ(dims[2].outDim, 47u);
    EXPECT_EQ(cfg.maxDim(), 100u);
}

TEST(GcnConfig, SingleLayer)
{
    GcnModelConfig cfg;
    cfg.numLayers = 1;
    cfg.inputDim = 16;
    cfg.outputDim = 4;
    const auto dims = cfg.layerDims();
    ASSERT_EQ(dims.size(), 1u);
    EXPECT_EQ(dims[0].inDim, 16u);
    EXPECT_EQ(dims[0].outDim, 4u);
}

TEST(Breakdown, FractionsSumToOne)
{
    KernelBreakdown bd;
    bd.spmmNs = 50;
    bd.denseNs = 30;
    bd.glueNs = 10;
    bd.offloadNs = 5;
    bd.samplingNs = 5;
    EXPECT_DOUBLE_EQ(bd.totalNs(), 100.0);
    EXPECT_DOUBLE_EQ(bd.spmmFraction() + bd.denseFraction() +
                         bd.glueFraction() + bd.offloadFraction() +
                         bd.samplingFraction(),
                     1.0);
}

TEST(Breakdown, AdditionAccumulates)
{
    KernelBreakdown a, b;
    a.spmmNs = 1;
    b.spmmNs = 2;
    b.denseNs = 3;
    const auto c = a + b;
    EXPECT_DOUBLE_EQ(c.spmmNs, 3.0);
    EXPECT_DOUBLE_EQ(c.denseNs, 3.0);
}

class GcnInference : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto coo = graph::generateRmat(8, 2000, graph::rmatSkewed(), 17);
        adjacency_ = std::make_unique<graph::Csr>(
            graph::normalizedAdjacency(coo));
        features_ = tensor::DenseMatrix(adjacency_->numVertices(), 32);
        features_.fillRandom(5, 0.5f);
    }

    std::unique_ptr<graph::Csr> adjacency_;
    tensor::DenseMatrix features_;
};

TEST_F(GcnInference, OutputShapeMatchesConfig)
{
    GcnModelConfig cfg;
    cfg.inputDim = 32;
    cfg.hiddenDim = 16;
    cfg.outputDim = 4;
    GcnModel model(cfg);
    parallel::ThreadPool pool(2);
    const auto out = model.infer(*adjacency_, features_, pool);
    EXPECT_EQ(out.rows(), adjacency_->numVertices());
    EXPECT_EQ(out.cols(), 4u);
}

/**
 * The unfused public-kernel chain infer's passes must reproduce bit
 * for bit: per layer denseMmBlocked and the SpMM kernel in the
 * model's order, each over the whole matrix, then reluInPlace.
 */
tensor::DenseMatrix
unfusedChain(const GcnModel &model, const graph::Csr &adjacency,
             const tensor::DenseMatrix &features,
             parallel::ThreadPool &pool, CpuSpmmKind kind)
{
    const auto spmm = [&](const tensor::DenseMatrix &in,
                          tensor::DenseMatrix &out) {
        if (kind == CpuSpmmKind::EdgeParallel)
            kernels::spmmEdgeParallel(adjacency, in, out, pool);
        else
            kernels::spmmVertexParallel(adjacency, in, out, pool);
    };
    const unsigned layers = model.config().numLayers;
    tensor::DenseMatrix h = features;
    for (unsigned l = 0; l < layers; ++l) {
        tensor::DenseMatrix mid, next;
        if (model.config().order == LayerOrder::TransformThenAggregate) {
            tensor::denseMmBlocked(h, model.weights(l), mid, &pool);
            spmm(mid, next);
        } else {
            spmm(h, mid);
            tensor::denseMmBlocked(mid, model.weights(l), next, &pool);
        }
        if (l + 1 < layers)
            tensor::reluInPlace(next);
        h = std::move(next);
    }
    return h;
}

bool
sameBits(const tensor::DenseMatrix &a, const tensor::DenseMatrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

TEST_F(GcnInference, MatchesManualLayerComposition)
{
    GcnModelConfig cfg;
    cfg.inputDim = 32;
    cfg.hiddenDim = 16;
    cfg.outputDim = 4;
    cfg.numLayers = 2;
    GcnModel model(cfg);
    parallel::ThreadPool pool(2);
    const auto out = model.infer(*adjacency_, features_, pool);

    // Hand-rolled: H1 = relu(A (H0 W0)); H2 = A (H1 W1).
    tensor::DenseMatrix hw, h1, hw2, h2;
    tensor::denseMmReference(features_, model.weights(0), hw);
    kernels::spmmReference(*adjacency_, hw, h1);
    tensor::reluInPlace(h1);
    tensor::denseMmReference(h1, model.weights(1), hw2);
    kernels::spmmReference(*adjacency_, hw2, h2);

    EXPECT_TRUE(allClose(out, h2, 1e-3f, 1e-4f))
        << "max diff " << maxAbsDiff(out, h2);

    // The fused passes keep every element's summation order, so they
    // match the unfused kernel chain exactly. The 256-vertex fixture
    // ends in a partial 64-row tile; hidden widths 47 and 1 send the
    // SpMM, ReLU and GEMM through their masked and one-register tails.
    // EdgeParallel splits a row at most once on 2 threads, and its two
    // atomic partial sums add the same in either order.
    ASSERT_EQ(adjacency_->numVertices(), 256u);
    cfg.numLayers = 3;
    cfg.outputDim = 7;
    for (const auto order : {LayerOrder::TransformThenAggregate,
                             LayerOrder::AggregateThenTransform}) {
        for (const uint64_t hidden : {47u, 1u}) {
            cfg.order = order;
            cfg.hiddenDim = hidden;
            const GcnModel fused(cfg);
            for (const unsigned threads : {1u, 2u, 4u}) {
                parallel::ThreadPool p(threads);
                for (const auto kind : {CpuSpmmKind::VertexParallel,
                                        CpuSpmmKind::EdgeParallel}) {
                    if (kind == CpuSpmmKind::EdgeParallel && threads > 2)
                        continue;
                    SCOPED_TRACE(testing::Message()
                                 << "order " << static_cast<int>(order)
                                 << ", hidden " << hidden << ", "
                                 << threads << " threads, kind "
                                 << static_cast<int>(kind));
                    EXPECT_TRUE(sameBits(
                        fused.infer(*adjacency_, features_, p, kind),
                        unfusedChain(fused, *adjacency_, features_, p,
                                     kind)));
                }
            }
        }
    }
}

TEST_F(GcnInference, AllSpmmKindsAgreeInBothLayerOrders)
{
    GcnModelConfig cfg;
    cfg.inputDim = 32;
    cfg.hiddenDim = 8;
    cfg.outputDim = 8;
    for (const auto order : {LayerOrder::TransformThenAggregate,
                             LayerOrder::AggregateThenTransform}) {
        cfg.order = order;
        GcnModel model(cfg);
        parallel::ThreadPool pool(4);
        const auto ref =
            model.infer(*adjacency_, features_, pool,
                        CpuSpmmKind::VertexParallel);
        const auto out = model.infer(*adjacency_, features_, pool,
                                     CpuSpmmKind::EdgeParallel);
        EXPECT_TRUE(allClose(ref, out, 1e-3f, 1e-4f))
            << "order " << static_cast<int>(order) << ", max diff "
            << maxAbsDiff(ref, out);
    }
}

TEST_F(GcnInference, PoolSizeDoesNotChangeLogits)
{
    // Every step splits only independent rows across the pool, so the
    // logits are bit-identical whatever the thread count. The 47-wide
    // hidden layer sends SpMM, GEMM and ReLU through their tails.
    GcnModelConfig cfg;
    cfg.inputDim = 32;
    cfg.hiddenDim = 47;
    cfg.outputDim = 7;
    for (const auto order : {LayerOrder::TransformThenAggregate,
                             LayerOrder::AggregateThenTransform}) {
        cfg.order = order;
        GcnModel model(cfg);
        parallel::ThreadPool serial(1);
        const auto want = model.infer(*adjacency_, features_, serial);
        for (unsigned threads : {2u, 4u}) {
            parallel::ThreadPool pool(threads);
            const auto got = model.infer(*adjacency_, features_, pool);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(), want.bytes()), 0)
                << threads << " threads, order "
                << static_cast<int>(order);
        }
    }
}

/** infer() on a fresh thread, whose layer buffers start empty. */
tensor::DenseMatrix
inferOnFreshThread(const GcnModel &model, const graph::Csr &adjacency,
                   const tensor::DenseMatrix &features,
                   parallel::ThreadPool &pool, CpuSpmmKind kind)
{
    tensor::DenseMatrix out;
    std::thread([&] {
        out = model.infer(adjacency, features, pool, kind);
    }).join();
    return out;
}

TEST_F(GcnInference, ReusedLayerBuffersDoNotChangeLogits)
{
    // The calling thread's layer buffers outlive each call. Going
    // large -> small with other widths -> large reshapes them into
    // stale contents of another stride; every result must still match
    // a call whose buffers start empty, bit for bit.
    const graph::Csr big_adj = graph::normalizedAdjacency(
        graph::generateRmat(11, 16000, graph::rmatSkewed(), 23));
    tensor::DenseMatrix big_x(big_adj.numVertices(), 40);
    big_x.fillRandom(9, 0.5f);
    GcnModelConfig big_cfg;
    big_cfg.inputDim = 40;
    big_cfg.hiddenDim = 24;
    big_cfg.outputDim = 7;
    GcnModelConfig small_cfg;
    small_cfg.inputDim = 32;
    small_cfg.hiddenDim = 96;
    small_cfg.outputDim = 5;
    small_cfg.numLayers = 2;

    // Two threads: an EdgeParallel row is then split at most once, and
    // its two atomic partial sums add the same in either order.
    parallel::ThreadPool pool(2);
    for (const auto order : {LayerOrder::TransformThenAggregate,
                             LayerOrder::AggregateThenTransform}) {
        big_cfg.order = order;
        small_cfg.order = order;
        const GcnModel big(big_cfg);
        const GcnModel small(small_cfg);
        for (const auto kind :
             {CpuSpmmKind::VertexParallel, CpuSpmmKind::EdgeParallel}) {
            SCOPED_TRACE(testing::Message()
                         << "order " << static_cast<int>(order)
                         << ", kind " << static_cast<int>(kind));
            const auto big_want =
                inferOnFreshThread(big, big_adj, big_x, pool, kind);
            const auto small_want = inferOnFreshThread(
                small, *adjacency_, features_, pool, kind);
            EXPECT_TRUE(sameBits(big.infer(big_adj, big_x, pool, kind),
                                 big_want));
            EXPECT_TRUE(sameBits(
                small.infer(*adjacency_, features_, pool, kind),
                small_want));
            EXPECT_TRUE(sameBits(big.infer(big_adj, big_x, pool, kind),
                                 big_want));
        }
    }
}

TEST_F(GcnInference, ConcurrentCallersGetIdenticalLogits)
{
    // Each calling thread owns its layer buffers, so two threads
    // running one model at once cannot see each other's activations.
    GcnModelConfig cfg;
    cfg.inputDim = 32;
    cfg.hiddenDim = 47;
    cfg.outputDim = 7;
    const GcnModel model(cfg);
    parallel::ThreadPool serial(1);
    const auto want = model.infer(*adjacency_, features_, serial);

    constexpr int kPasses = 20;
    tensor::DenseMatrix got[2];
    int mismatches[2] = {0, 0};
    std::vector<std::thread> callers;
    for (int t = 0; t < 2; ++t) {
        callers.emplace_back([&, t] {
            parallel::ThreadPool pool(2);
            for (int pass = 0; pass < kPasses; ++pass) {
                got[t] = model.infer(*adjacency_, features_, pool);
                mismatches[t] += sameBits(got[t], want) ? 0 : 1;
            }
        });
    }
    for (auto &caller : callers)
        caller.join();
    EXPECT_EQ(mismatches[0], 0);
    EXPECT_EQ(mismatches[1], 0);
    EXPECT_TRUE(sameBits(got[0], got[1]));
}

TEST_F(GcnInference, BreakdownCoversAllCategories)
{
    GcnModelConfig cfg;
    cfg.inputDim = 32;
    cfg.hiddenDim = 16;
    cfg.outputDim = 4;
    parallel::ThreadPool pool(2);
    // Each pass's wall time is split across the steps its workers ran,
    // so the categories never add up to more than the call took.
    for (const auto order : {LayerOrder::TransformThenAggregate,
                             LayerOrder::AggregateThenTransform}) {
        for (const auto kind :
             {CpuSpmmKind::VertexParallel, CpuSpmmKind::EdgeParallel}) {
            SCOPED_TRACE(testing::Message()
                         << "order " << static_cast<int>(order)
                         << ", kind " << static_cast<int>(kind));
            cfg.order = order;
            GcnModel model(cfg);
            KernelBreakdown bd;
            const auto t0 = std::chrono::steady_clock::now();
            model.infer(*adjacency_, features_, pool, kind, &bd);
            const double wall_ns =
                std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            EXPECT_GT(bd.spmmNs, 0.0);
            EXPECT_GT(bd.denseNs, 0.0);
            EXPECT_GT(bd.glueNs, 0.0);
            EXPECT_EQ(bd.offloadNs, 0.0);
            EXPECT_EQ(bd.samplingNs, 0.0);
            EXPECT_LE(bd.totalNs(), wall_ns);
        }
    }
}

TEST_F(GcnInference, DeterministicWeights)
{
    GcnModelConfig cfg;
    cfg.inputDim = 32;
    cfg.hiddenDim = 8;
    cfg.outputDim = 2;
    GcnModel a(cfg, 42), b(cfg, 42);
    EXPECT_TRUE(allClose(a.weights(0), b.weights(0), 0.0f, 0.0f));
    EXPECT_TRUE(allClose(a.weights(2), b.weights(2), 0.0f, 0.0f));
}

// ------------------------------------------------- platform findings

GcnModelConfig
sweepModel(const graph::DatasetInfo &d, uint64_t hidden)
{
    GcnModelConfig cfg;
    cfg.inputDim = d.inputDim;
    cfg.hiddenDim = hidden;
    cfg.outputDim = d.numClasses;
    cfg.numLayers = 3;
    return cfg;
}

TEST(Platforms, PiumaAlwaysOutperformsCpu)
{
    // Fig. 9 key takeaway 2: "A single PIUMA node always outperforms
    // the CPU system."
    XeonPlatform cpu;
    PiumaPlatform piuma;
    for (const auto &d : graph::ogbDatasets()) {
        for (uint64_t k : {uint64_t{8}, uint64_t{64}, uint64_t{256}}) {
            const auto model = sweepModel(d, k);
            const double cpu_ns = cpu.timeGcn(d, model).totalNs();
            const double piuma_ns = piuma.timeGcn(d, model).totalNs();
            EXPECT_GT(cpu_ns / piuma_ns, 1.0)
                << d.name << " K=" << k;
        }
    }
}

TEST(Platforms, PiumaSpeedupShrinksWithEmbeddingDim)
{
    // Fig. 9: PIUMA speedup decreases as K grows (dense pressure).
    XeonPlatform cpu;
    PiumaPlatform piuma;
    const auto &d = graph::datasetByName("products");
    const double s8 = cpu.timeGcn(d, sweepModel(d, 8)).totalNs() /
                      piuma.timeGcn(d, sweepModel(d, 8)).totalNs();
    const double s256 = cpu.timeGcn(d, sweepModel(d, 256)).totalNs() /
                        piuma.timeGcn(d, sweepModel(d, 256)).totalNs();
    EXPECT_GT(s8, s256);
}

TEST(Platforms, GpuSpeedupGrowsWithEmbeddingDim)
{
    // Fig. 9: GPU speedup over CPU increases with K (offload
    // amortised over more compute).
    XeonPlatform cpu;
    GpuPlatform gpu;
    const auto &d = graph::datasetByName("products");
    const double s8 = cpu.timeGcn(d, sweepModel(d, 8)).totalNs() /
                      gpu.timeGcn(d, sweepModel(d, 8)).totalNs();
    const double s256 = cpu.timeGcn(d, sweepModel(d, 256)).totalNs() /
                        gpu.timeGcn(d, sweepModel(d, 256)).totalNs();
    EXPECT_GT(s256, s8);
}

TEST(Platforms, GpuLosesToCpuAtSmallEmbedding)
{
    // Fig. 9: "GPUs actually performed worse than CPUs for lower
    // embedding dimensions due to the offloading overhead."
    XeonPlatform cpu;
    GpuPlatform gpu;
    const auto &d = graph::datasetByName("arxiv");
    const auto model = sweepModel(d, 8);
    EXPECT_LT(cpu.timeGcn(d, model).totalNs(),
              gpu.timeGcn(d, model).totalNs());
}

TEST(Platforms, PapersOnGpuIsSamplingBound)
{
    // Fig. 4: papers does not fit; sampling+offload dominate.
    GpuPlatform gpu;
    const auto &d = graph::datasetByName("papers");
    const auto bd = gpu.timeGcn(d, sweepModel(d, 128));
    EXPECT_FALSE(gpu.fits(d, sweepModel(d, 128)));
    EXPECT_GT(bd.samplingFraction(), 0.5);
    EXPECT_GT(bd.samplingFraction() + bd.offloadFraction(), 0.85);
}

TEST(Platforms, DenseDominatesPiumaAtLargeK)
{
    // Fig. 10: at K=256, arxiv/collab/mag/citation2/papers spend >75%
    // in Dense MM on PIUMA.
    PiumaPlatform piuma;
    for (const char *name : {"arxiv", "collab", "mag", "citation2",
                             "papers"}) {
        const auto &d = graph::datasetByName(name);
        const auto bd = piuma.timeGcn(d, sweepModel(d, 256));
        EXPECT_GT(bd.denseFraction(), 0.6) << name;
    }
}

TEST(Platforms, SpmmDominatesCpuForLargeDenseGraphs)
{
    // Fig. 3: ppa/products/ddi/proteins/papers spend >80% in SpMM on
    // CPU at K=256.
    XeonPlatform cpu;
    for (const char *name : {"ppa", "products", "proteins", "papers"}) {
        const auto &d = graph::datasetByName(name);
        const auto bd = cpu.timeGcn(d, sweepModel(d, 256));
        EXPECT_GT(bd.spmmFraction(), 0.7) << name;
    }
}

TEST(Platforms, PiumaSpmmSpeedupExceedsGpuOnPowerGraphs)
{
    // Fig. 9: PIUMA significantly outperforms GPU on SpMM for the
    // low-locality power-16/power-22 graphs.
    PiumaPlatform piuma;
    GpuPlatform gpu;
    for (const char *name : {"power-16", "power-22"}) {
        const auto &d = graph::datasetByName(name);
        const auto model = sweepModel(d, 64);
        EXPECT_LT(piuma.spmmOnlyNs(d, model), gpu.spmmOnlyNs(d, model))
            << name;
    }
}

} // namespace

// ------------------------------------------------------ layer order

namespace {

using namespace pgcn;
using namespace pgcn::core;

TEST(LayerOrder, SpmmDimFollowsOrder)
{
    GcnModelConfig cfg;
    cfg.inputDim = 100;
    cfg.hiddenDim = 64;
    cfg.outputDim = 10;
    const LayerDims dims{100, 64};
    cfg.order = LayerOrder::TransformThenAggregate;
    EXPECT_EQ(cfg.spmmDim(dims), 64u);
    cfg.order = LayerOrder::AggregateThenTransform;
    EXPECT_EQ(cfg.spmmDim(dims), 100u);
}

TEST(LayerOrder, BothOrdersGiveSameResult)
{
    // (A H) W == A (H W): associativity, up to float rounding.
    auto coo = graph::generateRmat(8, 2000, graph::rmatSkewed(), 23);
    auto adjacency = graph::normalizedAdjacency(coo);
    tensor::DenseMatrix features(adjacency.numVertices(), 24);
    features.fillRandom(9, 0.5f);
    parallel::ThreadPool pool(2);

    GcnModelConfig cfg;
    cfg.inputDim = 24;
    cfg.hiddenDim = 12;
    cfg.outputDim = 6;
    GcnModel a_model(cfg, 77);
    cfg.order = LayerOrder::AggregateThenTransform;
    GcnModel b_model(cfg, 77);

    const auto a = a_model.infer(adjacency, features, pool);
    const auto b = b_model.infer(adjacency, features, pool);
    EXPECT_TRUE(allClose(a, b, 1e-3f, 1e-4f))
        << "max diff " << maxAbsDiff(a, b);
}

TEST(LayerOrder, AggregateFirstCostsMoreWhenInputWide)
{
    // arxiv input dim 128 vs hidden 8: aggregating first runs the
    // SpMM at 128 instead of 8, which the platform models must
    // reflect (the PyG order is the cheap one here).
    XeonPlatform cpu;
    const auto &d = graph::datasetByName("products");
    GcnModelConfig cfg;
    cfg.inputDim = d.inputDim;
    cfg.hiddenDim = 8;
    cfg.outputDim = d.numClasses;
    const double transform_first = cpu.spmmOnlyNs(d, cfg);
    cfg.order = LayerOrder::AggregateThenTransform;
    const double aggregate_first = cpu.spmmOnlyNs(d, cfg);
    EXPECT_GT(aggregate_first, 1.5 * transform_first);
}

} // namespace
