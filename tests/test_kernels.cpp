/**
 * @file
 * Tests for the functional CPU SpMM kernels. The reference kernel is
 * checked against hand-computed values; the parallel kernels are
 * property-tested against the reference across graph shapes, degree
 * profiles, embedding dimensions and thread counts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/error.hpp"
#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "graph/reorder.hpp"
#include "kernels/spmm.hpp"

namespace {

using namespace pgcn;
using graph::Coo;
using graph::Csr;
using tensor::DenseMatrix;

TEST(SpmmReference, HandComputedTwoByTwo)
{
    // A = [[2, 1], [0, 3]], H = [[1, 2], [3, 4]]
    Coo coo(2);
    coo.addEdge(0, 0, 2.0f);
    coo.addEdge(0, 1, 1.0f);
    coo.addEdge(1, 1, 3.0f);
    Csr a(coo);
    DenseMatrix h(2, 2, {1, 2, 3, 4});
    DenseMatrix out;
    kernels::spmmReference(a, h, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);  // 2*1 + 1*3
    EXPECT_FLOAT_EQ(out.at(0, 1), 8.0f);  // 2*2 + 1*4
    EXPECT_FLOAT_EQ(out.at(1, 0), 9.0f);  // 3*3
    EXPECT_FLOAT_EQ(out.at(1, 1), 12.0f); // 3*4
}

TEST(SpmmReference, EmptyMatrixGivesZeros)
{
    Coo coo(3);
    Csr a(coo);
    DenseMatrix h(3, 4);
    h.fillRandom(1);
    DenseMatrix out;
    kernels::spmmReference(a, h, out);
    for (uint64_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out.data()[i], 0.0f);
}

TEST(SpmmReference, RowOfZeroWeightEdges)
{
    Coo coo(2);
    coo.addEdge(0, 1, 0.0f);
    Csr a(coo);
    DenseMatrix h(2, 2);
    h.fillRandom(2);
    DenseMatrix out;
    kernels::spmmReference(a, h, out);
    EXPECT_EQ(out.at(0, 0), 0.0f);
    EXPECT_EQ(out.at(0, 1), 0.0f);
}

/** Parameters: (rmat scale, edges, K, threads, skewed?). */
class SpmmParallelEquivalence
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint64_t, uint64_t, unsigned, bool>>
{
  protected:
    Csr
    makeGraph() const
    {
        const auto [scale, edges, k, threads, skewed] = GetParam();
        (void)k;
        (void)threads;
        Coo coo = graph::generateRmat(
            scale, edges, skewed ? graph::rmatSkewed() : graph::rmatUniform(),
            1234);
        return graph::normalizedAdjacency(coo);
    }
};

TEST_P(SpmmParallelEquivalence, VertexParallelMatchesReference)
{
    const auto [scale, edges, k, threads, skewed] = GetParam();
    (void)edges;
    (void)skewed;
    Csr a = makeGraph();
    DenseMatrix h(a.numVertices(), k);
    h.fillRandom(7);
    DenseMatrix ref, out;
    kernels::spmmReference(a, h, ref);
    parallel::ThreadPool pool(threads);
    kernels::spmmVertexParallel(a, h, out, pool, 16);
    EXPECT_TRUE(allClose(ref, out, 1e-4f, 1e-5f))
        << "max diff " << maxAbsDiff(ref, out);
}

TEST_P(SpmmParallelEquivalence, EdgeParallelMatchesReference)
{
    const auto [scale, edges, k, threads, skewed] = GetParam();
    (void)edges;
    (void)skewed;
    Csr a = makeGraph();
    DenseMatrix h(a.numVertices(), k);
    h.fillRandom(7);
    DenseMatrix ref, out;
    kernels::spmmReference(a, h, ref);
    parallel::ThreadPool pool(threads);
    kernels::spmmEdgeParallel(a, h, out, pool);
    // Atomic accumulation reorders float adds; allow a looser bound.
    EXPECT_TRUE(allClose(ref, out, 1e-3f, 1e-4f))
        << "max diff " << maxAbsDiff(ref, out);
}

INSTANTIATE_TEST_SUITE_P(
    GraphSweep, SpmmParallelEquivalence,
    ::testing::Values(
        std::make_tuple(4u, uint64_t{40}, uint64_t{1}, 1u, true),
        std::make_tuple(6u, uint64_t{500}, uint64_t{8}, 2u, true),
        std::make_tuple(8u, uint64_t{4000}, uint64_t{16}, 4u, true),
        std::make_tuple(8u, uint64_t{4000}, uint64_t{16}, 4u, false),
        std::make_tuple(10u, uint64_t{20000}, uint64_t{32}, 8u, true),
        std::make_tuple(6u, uint64_t{100}, uint64_t{64}, 3u, false),
        std::make_tuple(5u, uint64_t{64}, uint64_t{256}, 5u, true)));

TEST(SpmmEdgeParallel, MoreThreadsThanEdges)
{
    Coo coo(4);
    coo.addEdge(0, 1, 1.0f);
    coo.addEdge(2, 3, 2.0f);
    Csr a(coo);
    DenseMatrix h(4, 4);
    h.fillRandom(3);
    DenseMatrix ref, out;
    kernels::spmmReference(a, h, ref);
    parallel::ThreadPool pool(8);
    kernels::spmmEdgeParallel(a, h, out, pool);
    EXPECT_TRUE(allClose(ref, out));
}

TEST(SpmmEdgeParallel, ThreadBoundaryInsideLongRow)
{
    // One giant row: every thread boundary falls inside it, exercising
    // the shared-row atomic flush path.
    Coo coo(64);
    for (graph::VertexId v = 0; v < 64; ++v)
        coo.addEdge(0, v, 1.0f + static_cast<float>(v));
    Csr a(coo);
    DenseMatrix h(64, 8);
    h.fillRandom(5);
    DenseMatrix ref, out;
    kernels::spmmReference(a, h, ref);
    parallel::ThreadPool pool(7);
    kernels::spmmEdgeParallel(a, h, out, pool);
    EXPECT_TRUE(allClose(ref, out, 1e-3f, 1e-4f));
}

TEST(SpmmVertexParallel, SingleThreadChunkLargerThanGraph)
{
    Coo coo = graph::generateUniform(32, 128, 9);
    Csr a(coo);
    DenseMatrix h(32, 4);
    h.fillRandom(11);
    DenseMatrix ref, out;
    kernels::spmmReference(a, h, ref);
    parallel::ThreadPool pool(1);
    kernels::spmmVertexParallel(a, h, out, pool, 10000);
    EXPECT_TRUE(allClose(ref, out, 0.0f, 0.0f));
}

} // namespace

// ------------------------------------------------------ tiled SpMM

#include "kernels/tiled_spmm.hpp"

namespace {

using namespace pgcn;
using graph::Coo;
using graph::Csr;
using tensor::DenseMatrix;

TEST(TiledSpmm, SingleTileMatchesReference)
{
    Csr a = graph::normalizedAdjacency(
        graph::generateRmat(9, 4000, graph::rmatSkewed(), 44));
    DenseMatrix h(a.numVertices(), 16);
    h.fillRandom(4);
    kernels::TiledSpmm tiled(a, 16); // default budget: one tile
    EXPECT_EQ(tiled.numTiles(), 1u);
    DenseMatrix ref, out;
    kernels::spmmReference(a, h, ref);
    parallel::ThreadPool pool(2);
    tiled.apply(h, out, pool);
    EXPECT_TRUE(allClose(ref, out, 1e-4f, 1e-5f));
}

/** (cache budget in rows, K, threads). */
class TiledSpmmEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t,
                                                 unsigned>>
{
};

TEST_P(TiledSpmmEquivalence, MatchesReferenceAcrossTileCounts)
{
    const auto [budget_rows, k, threads] = GetParam();
    Csr a = graph::normalizedAdjacency(
        graph::generateRmat(9, 6000, graph::rmatSkewed(), 45));
    DenseMatrix h(a.numVertices(), k);
    h.fillRandom(6);
    kernels::TiledSpmm tiled(a, k,
                             static_cast<double>(budget_rows) * k * 4);
    DenseMatrix ref, out;
    kernels::spmmReference(a, h, ref);
    parallel::ThreadPool pool(threads);
    tiled.apply(h, out, pool);
    EXPECT_TRUE(allClose(ref, out, 1e-3f, 1e-4f))
        << tiled.numTiles() << " tiles, max diff "
        << maxAbsDiff(ref, out);
    // The budget must actually induce multiple tiles when small.
    if (budget_rows < a.numVertices()) {
        EXPECT_GT(tiled.numTiles(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BudgetSweep, TiledSpmmEquivalence,
    ::testing::Values(std::make_tuple(uint64_t{8}, uint64_t{8}, 1u),
                      std::make_tuple(uint64_t{64}, uint64_t{16}, 4u),
                      std::make_tuple(uint64_t{100}, uint64_t{32}, 2u),
                      std::make_tuple(uint64_t{1000}, uint64_t{8}, 8u),
                      std::make_tuple(uint64_t{1u << 20}, uint64_t{64},
                                      4u)));

TEST(TiledSpmm, TileCountMatchesBudget)
{
    Csr a = graph::normalizedAdjacency(
        graph::generateRmat(8, 2000, graph::rmatSkewed(), 46));
    // Budget of exactly 32 rows at K=8 -> ceil(256/32) = 8 tiles.
    kernels::TiledSpmm tiled(a, 8, 32.0 * 8 * 4);
    EXPECT_EQ(tiled.numTiles(), (a.numVertices() + 31) / 32);
}

TEST(TiledSpmm, EmptyGraph)
{
    graph::Coo coo(4);
    Csr a(coo);
    kernels::TiledSpmm tiled(a, 4);
    DenseMatrix h(4, 4);
    h.fillRandom(1);
    DenseMatrix out;
    parallel::ThreadPool pool(2);
    tiled.apply(h, out, pool);
    for (uint64_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out.data()[i], 0.0f);
}

TEST(TiledSpmm, RejectsMismatchedWidth)
{
    Csr a = graph::normalizedAdjacency(
        graph::generateRmat(6, 200, graph::rmatSkewed(), 47));
    kernels::TiledSpmm tiled(a, 8);
    DenseMatrix h(a.numVertices(), 16); // wrong width
    DenseMatrix out;
    parallel::ThreadPool pool(1);
    EXPECT_THROW(tiled.apply(h, out, pool), pgcn::ShapeError);
}

} // namespace

// ------------------------------- adversarial cross-variant property
// Every SpMM variant and both GEMMs against the scalar references, on
// inputs built to break tail paths and partitioners: empty rows, one
// dense row, degenerate graphs, widths straddling every SIMD tail
// regime — each repeated with dispatch pinned to every tier this host
// offers (so the force-scalar path is always exercised explicitly).

#include "kernels/simd.hpp"
#include "tensor/dense_mm.hpp"

namespace {

using namespace pgcn;
using graph::Coo;
using graph::Csr;
using kernels::simd::Tier;
using tensor::DenseMatrix;

/** Row 0 dense, interleaved + trailing empty rows, a few self loops. */
Csr
adversarialGraph()
{
    const graph::VertexId n = 33;
    Coo coo(n);
    for (graph::VertexId v = 0; v < n; ++v)
        coo.addEdge(0, v, 0.25f + 0.01f * static_cast<float>(v));
    // Odd rows stay empty; even rows (>= 2) get a couple of edges.
    for (graph::VertexId u = 2; u + 4 < n; u += 2) {
        coo.addEdge(u, u, 1.0f);
        coo.addEdge(u, u + 3, -0.5f);
    }
    return Csr(coo);
}

/**
 * The cache-blocked scalar GEMM (i-k-j inner ordering) that the packed
 * kernel replaced: an oracle independent of both the packing and the
 * reference's loop order.
 */
void
denseMmBlockedScalar(const DenseMatrix &a, const DenseMatrix &b,
                     DenseMatrix &out, uint64_t block)
{
    PGCN_ASSERT(a.cols() == b.rows(), "gemm shape mismatch");
    PGCN_ASSERT(block > 0, "gemm block must be positive");
    const uint64_t m = a.rows();
    const uint64_t kk = a.cols();
    const uint64_t n = b.cols();
    out.resize(m, n);

    for (uint64_t i0 = 0; i0 < m; i0 += block) {
        const uint64_t i1 = std::min(i0 + block, m);
        for (uint64_t k0 = 0; k0 < kk; k0 += block) {
            const uint64_t k1 = std::min(k0 + block, kk);
            for (uint64_t i = i0; i < i1; ++i) {
                auto orow = out.row(i);
                for (uint64_t k = k0; k < k1; ++k) {
                    const float aik = a.at(i, k);
                    const auto brow = b.row(k);
                    for (uint64_t j = 0; j < n; ++j)
                        orow[j] += aik * brow[j];
                }
            }
        }
    }
}

/** Dispatch pinned to a tier for the test's lifetime. */
class SpmmVariantProperty
    : public ::testing::TestWithParam<std::tuple<Tier, uint64_t>>
{
  protected:
    void
    SetUp() override
    {
        kernels::simd::forceTier(std::get<0>(GetParam()));
    }
    void
    TearDown() override
    {
        kernels::simd::resetTier();
    }
    uint64_t
    k() const
    {
        return std::get<1>(GetParam());
    }

    void
    expectAllVariantsMatch(const Csr &a, unsigned threads)
    {
        DenseMatrix h(a.numVertices(), k());
        h.fillRandom(13);
        DenseMatrix ref;
        kernels::spmmReference(a, h, ref);
        parallel::ThreadPool pool(threads);

        DenseMatrix out;
        kernels::spmmVertexParallel(a, h, out, pool, 4);
        EXPECT_TRUE(allClose(ref, out, 1e-4f, 1e-5f))
            << "vertex-parallel, max diff " << maxAbsDiff(ref, out);

        kernels::spmmEdgeParallel(a, h, out, pool);
        EXPECT_TRUE(allClose(ref, out, 1e-3f, 1e-4f))
            << "edge-parallel, max diff " << maxAbsDiff(ref, out);

        kernels::spmmNnzBalanced(a, h, out, pool);
        EXPECT_TRUE(allClose(ref, out, 1e-4f, 1e-5f))
            << "nnz-balanced, max diff " << maxAbsDiff(ref, out);

        kernels::spmmNnzBalanced(a, h, out, pool,
                                 graph::uniformIslands(a.numVertices(), 4));
        EXPECT_TRUE(allClose(ref, out, 1e-4f, 1e-5f))
            << "island-aligned nnz-balanced, max diff "
            << maxAbsDiff(ref, out);

        if (k() > 0) {
            kernels::TiledSpmm tiled(a, k(),
                                     /*cache_budget=*/8.0 * k() * 4);
            tiled.apply(h, out, pool);
            EXPECT_TRUE(allClose(ref, out, 1e-3f, 1e-4f))
                << "tiled, max diff " << maxAbsDiff(ref, out);
        }
    }
};

TEST_P(SpmmVariantProperty, AdversarialGraphAllVariantsAgree)
{
    expectAllVariantsMatch(adversarialGraph(), 4);
}

TEST_P(SpmmVariantProperty, OneDenseRowSwallowsEveryPartition)
{
    // A single row holding all non-zeros: every NNZ-balanced chunk
    // boundary collapses onto it and most chunks come out empty.
    Coo coo(16);
    for (graph::VertexId v = 0; v < 16; ++v)
        coo.addEdge(7, v, 1.0f / (1.0f + static_cast<float>(v)));
    expectAllVariantsMatch(Csr(coo), 8);
}

TEST_P(SpmmVariantProperty, ZeroVertexGraph)
{
    expectAllVariantsMatch(Csr(Coo(0)), 2);
}

TEST_P(SpmmVariantProperty, OneVertexNoEdges)
{
    expectAllVariantsMatch(Csr(Coo(1)), 3);
}

TEST_P(SpmmVariantProperty, OneVertexSelfLoop)
{
    Coo coo(1);
    coo.addEdge(0, 0, 0.5f);
    expectAllVariantsMatch(Csr(coo), 3);
}

TEST_P(SpmmVariantProperty, PackedGemmMatchesBothScalarOracles)
{
    // m x kk x n with m and kk off the blocking grid; the widths put
    // the last panel at 1 column, just under, at and over one register
    // on each tier, and between two and three.
    const uint64_t m = 23, kk = k() > 0 ? k() : 1;
    for (uint64_t n : {21u, 1u, 15u, 16u, 17u, 33u, 47u}) {
        DenseMatrix a(m, kk), b(kk, n);
        a.fillRandom(19);
        b.fillRandom(20);
        DenseMatrix ref, blocked_scalar, packed;
        tensor::denseMmReference(a, b, ref);
        denseMmBlockedScalar(a, b, blocked_scalar, 16);
        tensor::denseMmBlocked(a, b, packed);
        EXPECT_TRUE(allClose(ref, blocked_scalar, 1e-4f, 1e-5f))
            << "n = " << n;
        EXPECT_TRUE(allClose(ref, packed, 1e-4f, 1e-5f))
            << "n = " << n << ", packed GEMM, max diff "
            << maxAbsDiff(ref, packed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    TierAndWidthSweep, SpmmVariantProperty,
    ::testing::Combine(
        ::testing::ValuesIn(kernels::simd::availableTiers()),
        ::testing::Values(uint64_t{1}, uint64_t{7}, uint64_t{32},
                          uint64_t{47}, uint64_t{100}, uint64_t{257})),
    [](const ::testing::TestParamInfo<std::tuple<Tier, uint64_t>>
           &info) {
        return std::string(
                   kernels::simd::tierName(std::get<0>(info.param))) +
               "_k" + std::to_string(std::get<1>(info.param));
    });

TEST(SpmmNnzChunks, BalancedOnUniformRows)
{
    // 8 rows x 4 nnz each, 4 parts -> exact 2-row chunks.
    std::vector<graph::EdgeId> offsets;
    for (graph::EdgeId i = 0; i <= 8; ++i)
        offsets.push_back(i * 4);
    const auto bounds = kernels::nnzBalancedRowChunks(offsets, 4);
    ASSERT_EQ(bounds.size(), 5u);
    EXPECT_EQ(bounds[0], 0u);
    EXPECT_EQ(bounds[1], 2u);
    EXPECT_EQ(bounds[2], 4u);
    EXPECT_EQ(bounds[3], 6u);
    EXPECT_EQ(bounds[4], 8u);
}

TEST(SpmmNnzChunks, MonotoneAndCoveringOnSkew)
{
    // One huge row then a tail of tiny ones.
    std::vector<graph::EdgeId> offsets = {0, 1000, 1001, 1002,
                                          1003, 1004};
    const auto bounds = kernels::nnzBalancedRowChunks(offsets, 4);
    ASSERT_EQ(bounds.size(), 5u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), 5u);
    for (size_t p = 1; p < bounds.size(); ++p)
        EXPECT_LE(bounds[p - 1], bounds[p]);
    // The huge row lands alone in the first chunk.
    EXPECT_EQ(bounds[1], 1u);
}

TEST(SpmmNnzChunks, MorePartsThanRows)
{
    std::vector<graph::EdgeId> offsets = {0, 2, 4};
    const auto bounds = kernels::nnzBalancedRowChunks(offsets, 16);
    ASSERT_EQ(bounds.size(), 17u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), 2u);
    for (size_t p = 1; p < bounds.size(); ++p)
        EXPECT_LE(bounds[p - 1], bounds[p]);
}

TEST(SpmmNnzChunks, EmptyMatrix)
{
    std::vector<graph::EdgeId> offsets = {0};
    const auto bounds = kernels::nnzBalancedRowChunks(offsets, 4);
    ASSERT_EQ(bounds.size(), 5u);
    for (const auto b : bounds)
        EXPECT_EQ(b, 0u);
}

/**
 * The chunking invariants (monotone, covering, balanced-ish) must
 * survive any relabeling of the graph — reordered CSRs are the normal
 * input after the reorder sweeps.
 */
TEST(SpmmNnzChunks, InvariantsHoldOnPermutedAndIslandizedCsrs)
{
    const Csr a = graph::normalizedAdjacency(
        graph::generateRmat(8, 4000, graph::rmatSkewed(), 19));
    for (uint64_t seed : {1u, 2u}) {
        const Csr shuffled =
            graph::shuffleOrder(a.numVertices(), seed).applyToCsr(a);
        for (unsigned parts : {1u, 3u, 8u, 64u}) {
            const auto bounds =
                kernels::nnzBalancedRowChunks(shuffled.rowOffsets(),
                                              parts);
            ASSERT_EQ(bounds.size(), parts + 1u);
            EXPECT_EQ(bounds.front(), 0u);
            EXPECT_EQ(bounds.back(), shuffled.numVertices());
            EXPECT_TRUE(
                std::is_sorted(bounds.begin(), bounds.end()));
        }
    }
    const auto isl = graph::islandOrder(a, 32);
    const Csr islandized = isl.perm.applyToCsr(a);
    const auto aligned = kernels::nnzBalancedRowChunksAligned(
        islandized.rowOffsets(), isl.boundaries, 8);
    EXPECT_EQ(aligned.front(), 0u);
    EXPECT_EQ(aligned.back(), islandized.numVertices());
    EXPECT_TRUE(std::is_sorted(aligned.begin(), aligned.end()));
}

TEST(SpmmNnzChunks, AlignedWithEmptyIslands)
{
    // Middle islands are empty row ranges (boundaries repeat).
    std::vector<graph::EdgeId> offsets = {0, 4, 8, 8, 8, 12, 16};
    const std::vector<graph::VertexId> islands = {0, 2, 2, 4, 4, 6};
    const auto bounds =
        kernels::nnzBalancedRowChunksAligned(offsets, islands, 4);
    ASSERT_EQ(bounds.size(), 5u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), 6u);
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST(SpmmNnzChunks, AlignedSingleHubIsland)
{
    // One island owns all non-zeros: every split snaps around it and
    // the other chunks come out empty but valid.
    std::vector<graph::EdgeId> offsets = {0, 500, 500, 500, 500};
    const std::vector<graph::VertexId> islands = {0, 1, 2, 3, 4};
    const auto bounds =
        kernels::nnzBalancedRowChunksAligned(offsets, islands, 4);
    ASSERT_EQ(bounds.size(), 5u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), 4u);
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
    // Every split lands on an island boundary, so exactly one chunk
    // holds the hub island [0, 1) and it is never split.
    for (const auto b : bounds)
        EXPECT_NE(std::find(islands.begin(), islands.end(), b),
                  islands.end());
    EXPECT_NE(std::find(bounds.begin(), bounds.end(), 1u),
              bounds.end());
}

TEST(SpmmNnzChunks, AlignedMorePartsThanNonemptyRows)
{
    std::vector<graph::EdgeId> offsets = {0, 2, 2, 4};
    const std::vector<graph::VertexId> islands = {0, 1, 2, 3};
    const auto bounds =
        kernels::nnzBalancedRowChunksAligned(offsets, islands, 12);
    ASSERT_EQ(bounds.size(), 13u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), 3u);
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

} // namespace
