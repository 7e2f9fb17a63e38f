/**
 * @file
 * Tests for the graph reordering subsystem: Permutation algebra and
 * round trips, the four reordering passes, island layouts, the
 * island-aligned kernels, and the locality report that explains them.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/normalize.hpp"
#include "graph/reorder.hpp"
#include "kernels/spmm.hpp"
#include "kernels/tiled_spmm.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/dense_matrix.hpp"

namespace {

using namespace pgcn;
using graph::Coo;
using graph::Csr;
using graph::EdgeId;
using graph::Islandization;
using graph::Permutation;
using graph::ReorderPass;
using graph::VertexId;
using tensor::DenseMatrix;

Csr
skewedGraph(uint32_t scale = 8, EdgeId edges = 3000, uint64_t seed = 7)
{
    return graph::normalizedAdjacency(
        graph::generateRmat(scale, edges, graph::rmatSkewed(), seed));
}

/** Average |newId(u) - newId(v)| over edges, under a permutation. */
double
bandwidthUnder(const Csr &a, const Permutation &p)
{
    double sum = 0.0;
    for (VertexId u = 0; u < a.numVertices(); ++u)
        for (VertexId v : a.rowCols(u))
            sum += std::abs(static_cast<double>(p.newId(u)) -
                            static_cast<double>(p.newId(v)));
    return sum / static_cast<double>(a.numEdges());
}

// ---------------------------------------------------------------------
// Permutation algebra

TEST(Permutation, IdentityMapsEveryVertexToItself)
{
    const auto p = Permutation::identity(5);
    EXPECT_TRUE(p.isIdentity());
    for (VertexId v = 0; v < 5; ++v) {
        EXPECT_EQ(p.newId(v), v);
        EXPECT_EQ(p.oldId(v), v);
    }
}

TEST(Permutation, FromNewIdsRejectsNonBijections)
{
    EXPECT_THROW(Permutation::fromNewIds({0, 0, 1}), ShapeError);
    EXPECT_THROW(Permutation::fromNewIds({0, 3, 1}), ShapeError);
}

TEST(Permutation, InverseComposesToIdentity)
{
    const auto p = graph::shuffleOrder(64, 123);
    EXPECT_FALSE(p.isIdentity());
    EXPECT_TRUE(p.then(p.inverse()).isIdentity());
    EXPECT_TRUE(p.inverse().then(p).isIdentity());
    for (VertexId v = 0; v < 64; ++v)
        EXPECT_EQ(p.oldId(p.newId(v)), v);
}

TEST(Permutation, ThenComposesInOrder)
{
    const auto p = Permutation::fromNewIds({1, 2, 0});
    const auto q = Permutation::fromNewIds({0, 2, 1});
    const auto pq = p.then(q);
    for (VertexId v = 0; v < 3; ++v)
        EXPECT_EQ(pq.newId(v), q.newId(p.newId(v)));
}

TEST(Permutation, CsrRoundTripIsIdentity)
{
    const Csr a = skewedGraph();
    const auto p = graph::shuffleOrder(a.numVertices(), 99);
    const Csr back = p.inverse().applyToCsr(p.applyToCsr(a));
    EXPECT_EQ(back.rowOffsets(), a.rowOffsets());
    EXPECT_EQ(back.cols(), a.cols());
    EXPECT_EQ(back.vals(), a.vals());
}

TEST(Permutation, CooRoundTripPreservesEdges)
{
    Coo coo(6);
    coo.addEdge(0, 1, 2.0f);
    coo.addEdge(4, 5, 3.0f);
    coo.addEdge(2, 2, 1.0f);
    const auto p = graph::shuffleOrder(6, 5);
    Coo back = p.inverse().applyToCoo(p.applyToCoo(coo));
    back.sortAndCombineDuplicates();
    Coo expect = coo;
    expect.sortAndCombineDuplicates();
    EXPECT_EQ(back.edges(), expect.edges());
}

TEST(Permutation, FeatureRoundTripIsExact)
{
    DenseMatrix h(37, 9);
    h.fillRandom(21);
    const auto p = graph::shuffleOrder(37, 4);
    const DenseMatrix back =
        p.inverse().applyToFeatures(p.applyToFeatures(h));
    EXPECT_EQ(tensor::maxAbsDiff(back, h), 0.0f);
}

/** P A P^T (P H) == P (A H): SpMM commutes with relabeling. */
TEST(Permutation, SpmmInvariantUnderRelabeling)
{
    const Csr a = skewedGraph(8, 4000, 3);
    DenseMatrix h(a.numVertices(), 16);
    h.fillRandom(77);
    const auto p = graph::shuffleOrder(a.numVertices(), 11);

    DenseMatrix direct;
    kernels::spmmReference(a, h, direct);
    const DenseMatrix expected = p.applyToFeatures(direct);

    DenseMatrix permuted;
    kernels::spmmReference(p.applyToCsr(a), p.applyToFeatures(h),
                           permuted);
    // Relabeling reorders each row's accumulation; FMA-order changes
    // are within allClose tolerance.
    EXPECT_TRUE(tensor::allClose(permuted, expected));
}

// ---------------------------------------------------------------------
// Reordering passes

TEST(ReorderPasses, AllPassesAreValidPermutationsAndSeedStable)
{
    const Csr a = skewedGraph();
    for (ReorderPass pass : graph::allReorderPasses()) {
        const auto first = graph::makeOrder(pass, a, 42, 64);
        const auto second = graph::makeOrder(pass, a, 42, 64);
        EXPECT_EQ(first.perm.newIds(), second.perm.newIds())
            << graph::reorderPassName(pass);
        EXPECT_EQ(first.boundaries, second.boundaries)
            << graph::reorderPassName(pass);
        EXPECT_EQ(first.perm.size(), a.numVertices());
        ASSERT_GE(first.boundaries.size(), 2u);
        EXPECT_EQ(first.boundaries.front(), 0u);
        EXPECT_EQ(first.boundaries.back(), a.numVertices());
        EXPECT_TRUE(std::is_sorted(first.boundaries.begin(),
                                   first.boundaries.end()));
    }
}

TEST(ReorderPasses, ShuffleSeedsDiffer)
{
    const auto a = graph::shuffleOrder(256, 1);
    const auto b = graph::shuffleOrder(256, 2);
    EXPECT_NE(a.newIds(), b.newIds());
}

TEST(ReorderPasses, DegreeOrderSortsDescending)
{
    const Csr a = skewedGraph();
    const auto p = graph::degreeOrder(a);
    const Csr sorted = p.applyToCsr(a);
    for (VertexId u = 0; u + 1 < sorted.numVertices(); ++u)
        EXPECT_GE(sorted.degree(u), sorted.degree(u + 1));
}

TEST(ReorderPasses, RcmMinimisesBandwidthOnAPath)
{
    // A path graph relabelled randomly: RCM must recover a unit
    // bandwidth order (each vertex adjacent to its neighbours).
    constexpr VertexId n = 64;
    Coo coo(n);
    for (VertexId v = 0; v + 1 < n; ++v)
        coo.addEdge(v, v + 1);
    coo.symmetrize();
    const auto scramble = graph::shuffleOrder(n, 17);
    const Csr scrambled = scramble.applyToCsr(Csr(coo));
    const auto rcm = graph::rcmOrder(scrambled);
    EXPECT_DOUBLE_EQ(bandwidthUnder(scrambled, rcm), 1.0);
}

TEST(ReorderPasses, RcmBeatsShuffleOnBandwidth)
{
    // RMAT is expander-like, so RCM cannot reach path-graph bandwidth;
    // a solid constant-factor win over random order is the bar.
    const Csr a = skewedGraph(9, 6000, 5);
    const auto shuffled = graph::shuffleOrder(a.numVertices(), 1);
    const auto rcm = graph::rcmOrder(a);
    EXPECT_LT(bandwidthUnder(a, rcm), 0.8 * bandwidthUnder(a, shuffled));
}

TEST(ReorderPasses, HubBucketOrdersByDescendingDegreeBucket)
{
    const Csr a = skewedGraph();
    const Csr reordered = graph::hubBucketOrder(a).applyToCsr(a);
    const auto bucket = [](EdgeId d) {
        return d == 0 ? -1 : 63 - std::countl_zero(d);
    };
    for (VertexId u = 0; u + 1 < reordered.numVertices(); ++u)
        EXPECT_GE(bucket(reordered.degree(u)),
                  bucket(reordered.degree(u + 1)));
}

TEST(ReorderPasses, IslandsAreCapacitySizedAndExhaustive)
{
    const Csr a = skewedGraph(8, 4000, 13);
    constexpr VertexId cap = 48;
    const Islandization isl = graph::islandOrder(a, cap);
    EXPECT_EQ(isl.perm.size(), a.numVertices());
    ASSERT_GE(isl.boundaries.size(), 2u);
    EXPECT_EQ(isl.boundaries.front(), 0u);
    EXPECT_EQ(isl.boundaries.back(), a.numVertices());
    // Every island except the last holds exactly `cap` vertices.
    for (size_t i = 0; i + 2 < isl.boundaries.size(); ++i)
        EXPECT_EQ(isl.boundaries[i + 1] - isl.boundaries[i], cap);
    EXPECT_LE(isl.boundaries[isl.boundaries.size() - 1] -
                  isl.boundaries[isl.boundaries.size() - 2],
              cap);
}

TEST(ReorderPasses, IslandizationBeatsShuffledBlocksOnConductance)
{
    const Csr a = skewedGraph(9, 8000, 23);
    constexpr VertexId cap = 64;
    const Islandization isl = graph::islandOrder(a, cap);
    const Csr islandized = isl.perm.applyToCsr(a);
    const double island_cond =
        graph::islandConductance(islandized, isl.boundaries);

    const auto shuffled = graph::shuffleOrder(a.numVertices(), 4);
    const double shuffled_cond = graph::islandConductance(
        shuffled.applyToCsr(a),
        graph::uniformIslands(a.numVertices(), cap));
    EXPECT_LT(island_cond, shuffled_cond);
}

TEST(ReorderPasses, IslandCapacityFloorsAtOne)
{
    EXPECT_EQ(graph::islandCapacity(16.0, 128), 1u);
    EXPECT_EQ(graph::islandCapacity(1 << 20, 128),
              (1u << 20) / (4 * 128));
}

TEST(ReorderPasses, UniformIslandsCoverEveryVertex)
{
    const auto b = graph::uniformIslands(10, 4);
    EXPECT_EQ(b, (std::vector<VertexId>{0, 4, 8, 10}));
    const auto single = graph::uniformIslands(3, 8);
    EXPECT_EQ(single, (std::vector<VertexId>{0, 3}));
}

// ---------------------------------------------------------------------
// Locality report

TEST(LocalityReport, ShuffleDegradesEveryMetric)
{
    const Csr a = skewedGraph(9, 8000, 31);
    const Islandization isl = graph::islandOrder(a, 64);
    const auto stats_island =
        graph::localityStats(isl.perm.applyToCsr(a), 64);
    const auto stats_shuffle = graph::localityStats(
        graph::shuffleOrder(a.numVertices(), 2).applyToCsr(a), 64);
    EXPECT_LT(stats_island.avgNeighborDistance,
              stats_shuffle.avgNeighborDistance);
    EXPECT_LT(stats_island.avgTileWorkingSet,
              stats_shuffle.avgTileWorkingSet);
}

TEST(LocalityReport, EmptyGraphIsAllZero)
{
    const Csr empty(0, {0}, {}, {});
    const auto stats = graph::localityStats(empty, 16);
    EXPECT_EQ(stats.avgNeighborDistance, 0.0);
    EXPECT_EQ(stats.avgTileWorkingSet, 0.0);
    EXPECT_EQ(graph::islandConductance(empty, {0, 0}), 0.0);
}

// ---------------------------------------------------------------------
// Island-aligned kernels

TEST(IslandKernels, AlignedChunksSnapToBoundaries)
{
    // 4 islands of 4 rows; all nnz in the first island.
    std::vector<EdgeId> offsets(17, 0);
    for (size_t r = 0; r < 4; ++r)
        offsets[r + 1] = offsets[r] + 10;
    for (size_t r = 4; r < 16; ++r)
        offsets[r + 1] = offsets[r];
    const std::vector<VertexId> islands = {0, 4, 8, 12, 16};
    const auto bounds =
        kernels::nnzBalancedRowChunksAligned(offsets, islands, 4);
    ASSERT_EQ(bounds.size(), 5u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), 16u);
    for (size_t p = 0; p + 1 < bounds.size(); ++p) {
        EXPECT_LE(bounds[p], bounds[p + 1]);
        // Interior bounds land on island boundaries only.
        EXPECT_TRUE(std::find(islands.begin(), islands.end(),
                              bounds[p]) != islands.end());
    }
}

TEST(IslandKernels, AlignedChunksHandleMoreParts_ThanIslands)
{
    std::vector<EdgeId> offsets = {0, 2, 4, 6, 8};
    const std::vector<VertexId> islands = {0, 2, 4};
    const auto bounds =
        kernels::nnzBalancedRowChunksAligned(offsets, islands, 8);
    ASSERT_EQ(bounds.size(), 9u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), 4u);
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST(IslandKernels, IslandBalancedSpmmMatchesReference)
{
    const Csr a = skewedGraph(8, 4000, 41);
    const Islandization isl = graph::islandOrder(a, 32);
    const Csr islandized = isl.perm.applyToCsr(a);
    DenseMatrix h(a.numVertices(), 24);
    h.fillRandom(5);

    DenseMatrix expected;
    kernels::spmmReference(islandized, h, expected);

    parallel::ThreadPool pool(4);
    DenseMatrix got;
    kernels::spmmNnzBalanced(islandized, h, got, pool, isl.boundaries);
    EXPECT_TRUE(tensor::allClose(got, expected));
}

TEST(IslandKernels, TiledSpmmWithIslandTilesMatchesReference)
{
    const Csr a = skewedGraph(8, 5000, 43);
    const Islandization isl = graph::islandOrder(a, 40);
    const Csr islandized = isl.perm.applyToCsr(a);
    DenseMatrix h(a.numVertices(), 16);
    h.fillRandom(9);

    DenseMatrix expected;
    kernels::spmmReference(islandized, h, expected);

    parallel::ThreadPool pool(2);
    const kernels::TiledSpmm tiled(islandized, 16, isl.boundaries);
    EXPECT_EQ(tiled.numTiles(), isl.boundaries.size() - 1);
    DenseMatrix got;
    tiled.apply(h, got, pool);
    EXPECT_TRUE(tensor::allClose(got, expected));
}

TEST(IslandKernels, TiledSpmmRejectsBadBoundaries)
{
    const Csr a = skewedGraph(6, 500, 2);
    EXPECT_THROW(kernels::TiledSpmm(a, 8, std::vector<VertexId>{0}),
                 ConfigError);
    EXPECT_THROW(
        kernels::TiledSpmm(a, 8, std::vector<VertexId>{0, 5}),
        ConfigError);
}

// ---------------------------------------------------------------------
// Generators satellite

TEST(GeneratorShuffle, RelabelsDeterministicallyAndPreservesStructure)
{
    const Coo coo = graph::generateRmat(7, 1200, graph::rmatSkewed(), 3);
    const Coo s1 = graph::shuffleVertexIds(coo, 8);
    const Coo s2 = graph::shuffleVertexIds(coo, 8);
    EXPECT_EQ(s1.edges(), s2.edges());
    EXPECT_EQ(s1.numEdges(), coo.numEdges());
    EXPECT_NE(s1.edges(), coo.edges());

    // Degree multiset is invariant under relabeling.
    auto degrees = [](const Coo &c) {
        std::vector<EdgeId> d(c.numVertices(), 0);
        for (const auto &e : c.edges())
            ++d[e.src];
        std::sort(d.begin(), d.end());
        return d;
    };
    EXPECT_EQ(degrees(s1), degrees(coo));
}

} // namespace
