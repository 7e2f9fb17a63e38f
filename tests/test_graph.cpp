/**
 * @file
 * Unit and property tests for src/graph: COO cleaning passes, CSR
 * construction and invariants, GCN normalisation, generators, dataset
 * catalog and proxy builder.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/manifest.hpp"
#include "common/rng.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/normalize.hpp"

namespace {

using namespace pgcn::graph;

Coo
triangleGraph()
{
    Coo coo(3);
    coo.addEdge(0, 1);
    coo.addEdge(1, 2);
    coo.addEdge(2, 0);
    return coo;
}

TEST(Coo, AddAndCount)
{
    Coo coo = triangleGraph();
    EXPECT_EQ(coo.numVertices(), 3u);
    EXPECT_EQ(coo.numEdges(), 3u);
}

TEST(Coo, SortCombinesDuplicates)
{
    Coo coo(2);
    coo.addEdge(0, 1, 1.0f);
    coo.addEdge(0, 1, 2.5f);
    coo.addEdge(1, 0, 1.0f);
    coo.sortAndCombineDuplicates();
    ASSERT_EQ(coo.numEdges(), 2u);
    EXPECT_FLOAT_EQ(coo.edges()[0].weight, 3.5f);
}

TEST(Coo, SymmetrizeAddsReverseEdges)
{
    Coo coo(3);
    coo.addEdge(0, 1);
    coo.addEdge(0, 2);
    coo.symmetrize();
    EXPECT_EQ(coo.numEdges(), 4u);
    std::set<std::pair<VertexId, VertexId>> have;
    for (const auto &e : coo.edges())
        have.insert({e.src, e.dst});
    EXPECT_TRUE(have.count({1, 0}));
    EXPECT_TRUE(have.count({2, 0}));
}

TEST(Coo, SymmetrizeIdempotentOnSymmetricInput)
{
    Coo coo(3);
    coo.addEdge(0, 1);
    coo.addEdge(1, 0);
    coo.symmetrize();
    // (0,1) and (1,0) each gain a reverse duplicate which merges:
    // weights double but the structure stays 2 edges.
    EXPECT_EQ(coo.numEdges(), 2u);
}

TEST(Coo, SelfLoopRoundTrip)
{
    Coo coo = triangleGraph();
    coo.addSelfLoops();
    EXPECT_EQ(coo.numEdges(), 6u);
    coo.removeSelfLoops();
    EXPECT_EQ(coo.numEdges(), 3u);
}

TEST(Csr, FromCooBasicStructure)
{
    Csr csr(triangleGraph());
    EXPECT_EQ(csr.numVertices(), 3u);
    EXPECT_EQ(csr.numEdges(), 3u);
    EXPECT_EQ(csr.degree(0), 1u);
    EXPECT_EQ(csr.rowCols(0)[0], 1u);
    EXPECT_EQ(csr.rowCols(1)[0], 2u);
    EXPECT_EQ(csr.rowCols(2)[0], 0u);
}

TEST(Csr, EmptyRowsHandled)
{
    Coo coo(4);
    coo.addEdge(0, 3);
    coo.addEdge(3, 0);
    Csr csr(coo);
    EXPECT_EQ(csr.degree(1), 0u);
    EXPECT_EQ(csr.degree(2), 0u);
    EXPECT_EQ(csr.numEdges(), 2u);
}

TEST(Csr, DensityAndDegree)
{
    Csr csr(triangleGraph());
    EXPECT_DOUBLE_EQ(csr.density(), 3.0 / 9.0);
    EXPECT_DOUBLE_EQ(csr.averageDegree(), 1.0);
}

TEST(Csr, RowOfEdgeMatchesLinearScan)
{
    Coo coo = generateUniform(50, 400, 7);
    Csr csr(coo);
    for (EdgeId e = 0; e < csr.numEdges(); ++e) {
        const VertexId u = csr.rowOfEdge(e);
        EXPECT_LE(csr.rowOffsets()[u], e);
        EXPECT_LT(e, csr.rowOffsets()[u + 1]);
    }
}

TEST(Csr, RowOfEdgeSkipsEmptyRows)
{
    Coo coo(5);
    coo.addEdge(0, 1);
    coo.addEdge(4, 2); // rows 1..3 empty
    Csr csr(coo);
    EXPECT_EQ(csr.rowOfEdge(0), 0u);
    EXPECT_EQ(csr.rowOfEdge(1), 4u);
}

TEST(Normalize, ValuesAreInverseSqrtDegreeProducts)
{
    Coo coo = generateRmat(8, 2000, rmatSkewed(), 3);
    Csr norm = normalizedAdjacency(coo);
    for (VertexId u = 0; u < norm.numVertices(); ++u) {
        const double du = static_cast<double>(norm.degree(u));
        auto cols = norm.rowCols(u);
        auto vals = norm.rowVals(u);
        for (size_t i = 0; i < cols.size(); ++i) {
            const double dv = static_cast<double>(norm.degree(cols[i]));
            EXPECT_NEAR(vals[i], 1.0 / std::sqrt(du * dv), 1e-6)
                << "edge " << u << "->" << cols[i];
            EXPECT_GT(vals[i], 0.0f);
            EXPECT_LE(vals[i], 1.0f);
        }
    }
}

TEST(Normalize, SymmetricValues)
{
    Coo coo(4);
    coo.addEdge(0, 1);
    coo.addEdge(1, 2);
    coo.addEdge(2, 3);
    Csr norm = normalizedAdjacency(coo);
    // A~[u][v] == A~[v][u] for the symmetric normalisation.
    for (VertexId u = 0; u < norm.numVertices(); ++u) {
        auto cols = norm.rowCols(u);
        auto vals = norm.rowVals(u);
        for (size_t i = 0; i < cols.size(); ++i) {
            const VertexId v = cols[i];
            auto vcols = norm.rowCols(v);
            auto vvals = norm.rowVals(v);
            bool found = false;
            for (size_t j = 0; j < vcols.size(); ++j) {
                if (vcols[j] == u) {
                    EXPECT_FLOAT_EQ(vals[i], vvals[j]);
                    found = true;
                }
            }
            EXPECT_TRUE(found) << "missing reverse edge " << v << "->" << u;
        }
    }
}

TEST(Normalize, IsolatedVertexGetsUnitSelfLoop)
{
    Coo coo(3);
    coo.addEdge(0, 1); // vertex 2 isolated
    Csr norm = normalizedAdjacency(coo);
    // Isolated vertex has only its self loop, normalised to 1/1.
    EXPECT_EQ(norm.degree(2), 1u);
    EXPECT_FLOAT_EQ(norm.rowVals(2)[0], 1.0f);
}

// The COO chain normalizedAdjacency replaced, kept here as its
// oracle: drop loops, symmetrize (sort, combine duplicates), add unit
// loops, build the CSR (a second sort), then scale by D^-1/2 on both
// sides in double. Input weights never reach the values.
Csr
cooPipelineNormalize(const Coo &coo)
{
    Coo prepared = coo;
    prepared.removeSelfLoops();
    prepared.symmetrize();
    prepared.addSelfLoops(1.0f);
    const Csr structural(prepared);
    const VertexId n = structural.numVertices();
    std::vector<double> inv_sqrt_deg(n);
    for (VertexId u = 0; u < n; ++u) {
        inv_sqrt_deg[u] =
            1.0 / std::sqrt(static_cast<double>(structural.degree(u)));
    }
    const auto &offsets = structural.rowOffsets();
    const auto &cols = structural.cols();
    std::vector<Value> vals(structural.numEdges());
    for (VertexId u = 0; u < n; ++u) {
        for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e)
            vals[e] = static_cast<Value>(inv_sqrt_deg[u] *
                                         inv_sqrt_deg[cols[e]]);
    }
    return Csr(n, offsets, cols, std::move(vals));
}

// Seeded multigraph over n vertices: endpoints drawn from the first
// ~90% (the rest stay isolated), a quarter of the edges repeat an
// earlier one in either direction, ~10% are self loops, and weights
// are not 1.
Coo
messyCoo(VertexId n, EdgeId edges, uint64_t seed)
{
    pgcn::Rng rng(seed);
    const VertexId reach = std::max<VertexId>(1, n - n / 10);
    Coo coo(n);
    for (EdgeId i = 0; i < edges; ++i) {
        const auto weight = static_cast<Value>(0.25 + 2.0 * rng.uniform());
        const double kind = rng.uniform();
        if (kind < 0.25 && coo.numEdges() > 0) {
            const Edge &old =
                coo.edges()[rng.uniformInt(coo.numEdges())];
            if (kind < 0.125)
                coo.addEdge(old.src, old.dst, weight);
            else
                coo.addEdge(old.dst, old.src, weight);
        } else {
            const auto u = static_cast<VertexId>(rng.uniformInt(reach));
            const auto v = kind < 0.35
                               ? u
                               : static_cast<VertexId>(rng.uniformInt(reach));
            coo.addEdge(u, v, weight);
        }
    }
    return coo;
}

void
expectSameBytes(const Csr &got, const Csr &want, const std::string &what)
{
    ASSERT_EQ(got.numVertices(), want.numVertices()) << what;
    EXPECT_EQ(got.rowOffsets(), want.rowOffsets()) << what;
    EXPECT_EQ(got.cols(), want.cols()) << what;
    ASSERT_EQ(got.vals().size(), want.vals().size()) << what;
    EXPECT_EQ(std::memcmp(got.vals().data(), want.vals().data(),
                          want.vals().size() * sizeof(Value)),
              0)
        << what;
}

TEST(Normalize, MatchesCooPipelineOracle)
{
    Coo empty(1);
    expectSameBytes(normalizedAdjacency(empty), cooPipelineNormalize(empty),
                    "|V|=1, no edges");
    Coo loop(1);
    loop.addEdge(0, 0, 3.0f);
    expectSameBytes(normalizedAdjacency(loop), cooPipelineNormalize(loop),
                    "|V|=1, a weighted self loop");
    Coo pair(2);
    pair.addEdge(0, 1, 2.0f);
    pair.addEdge(1, 0, 0.5f);
    pair.addEdge(0, 1);
    pair.addEdge(1, 1);
    expectSameBytes(normalizedAdjacency(pair), cooPipelineNormalize(pair),
                    "|V|=2, both directions, a duplicate and a loop");
    for (const VertexId n : {1u, 2u, 1000u}) {
        for (const uint64_t seed : {1u, 2u, 3u}) {
            const Coo coo = messyCoo(n, 8 * EdgeId{n}, seed);
            expectSameBytes(normalizedAdjacency(coo),
                            cooPipelineNormalize(coo),
                            "messy |V|=" + std::to_string(n) + " seed " +
                                std::to_string(seed));
        }
    }
    for (const uint32_t scale : {10u, 14u}) {
        const Coo rmat = shuffleVertexIds(
            generateRmat(scale, (EdgeId{1} << scale) * 16, rmatSkewed(),
                         scale),
            scale + 1);
        expectSameBytes(normalizedAdjacency(rmat),
                        cooPipelineNormalize(rmat),
                        "rmat scale " + std::to_string(scale));
    }
    const Coo uniform = generateUniform(5000, 40000, 4);
    expectSameBytes(normalizedAdjacency(uniform),
                    cooPipelineNormalize(uniform), "uniform");
}

uint64_t
csrDigest(const Csr &csr)
{
    uint64_t h = pgcn::fnv1a64(uint64_t{csr.numVertices()});
    h = pgcn::fnv1a64(csr.rowOffsets().data(),
                      csr.rowOffsets().size() * sizeof(EdgeId), h);
    h = pgcn::fnv1a64(csr.cols().data(),
                      csr.cols().size() * sizeof(VertexId), h);
    return pgcn::fnv1a64(csr.vals().data(),
                         csr.vals().size() * sizeof(Value), h);
}

uint64_t
cooDigest(const Coo &coo)
{
    uint64_t h = pgcn::fnv1a64(uint64_t{coo.numVertices()});
    for (const Edge &e : coo.edges()) {
        h = pgcn::fnv1a64(uint64_t{e.src}, h);
        h = pgcn::fnv1a64(uint64_t{e.dst}, h);
        h = pgcn::fnv1a64(static_cast<double>(e.weight), h);
    }
    return h;
}

// Digests recorded before the linear-time build replaced the COO
// chain. A change to the structure or one rounding of A~, or to any
// proxy graph, moves them.
TEST(Normalize, GoldenDigests)
{
    EXPECT_EQ(pgcn::hashHex(csrDigest(normalizedAdjacency(shuffleVertexIds(
                  generateRmat(12, EdgeId{1} << 16, rmatSkewed(), 1), 2)))),
              "05c73ef72f60d946");
    EXPECT_EQ(pgcn::hashHex(csrDigest(
                  normalizedAdjacency(generateUniform(3000, 20000, 5)))),
              "7af566a7f2c51f87");
    EXPECT_EQ(pgcn::hashHex(csrDigest(
                  normalizedAdjacency(messyCoo(1000, 8000, 6)))),
              "d257127fde9f703a");
    EXPECT_EQ(pgcn::hashHex(csrDigest(
                  buildProxy(datasetByName("products"), EdgeId{1} << 14, 1)
                      .adjacency)),
              "52d6793e8d9f7f82");
    EXPECT_EQ(pgcn::hashHex(csrDigest(
                  buildProxy(datasetByName("arxiv"), EdgeId{1} << 14, 3)
                      .adjacency)),
              "5083d190a75034b9");
}

TEST(Generators, RmatGoldenDigests)
{
    EXPECT_EQ(pgcn::hashHex(cooDigest(
                  generateRmat(10, EdgeId{1} << 14, rmatSkewed(), 3))),
              "63eaec0de92eb5eb");
    EXPECT_EQ(pgcn::hashHex(cooDigest(
                  generateRmat(10, EdgeId{1} << 14, rmatUniform(), 3))),
              "38143c4e3f4f87e1");
    EXPECT_EQ(pgcn::hashHex(cooDigest(shuffleVertexIds(
                  generateRmat(16, EdgeId{1} << 20, rmatSkewed(), 1), 2))),
              "e2d7f4e62eed8791");
}

TEST(Generators, RmatDeterministic)
{
    Coo a = generateRmat(6, 500, rmatSkewed(), 9);
    Coo b = generateRmat(6, 500, rmatSkewed(), 9);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    EXPECT_TRUE(a.edges() == b.edges());
}

TEST(Generators, RmatEdgeCountAndBounds)
{
    Coo coo = generateRmat(7, 1000, rmatSkewed(), 1);
    EXPECT_EQ(coo.numVertices(), 128u);
    EXPECT_EQ(coo.numEdges(), 1000u);
    for (const auto &e : coo.edges()) {
        EXPECT_LT(e.src, 128u);
        EXPECT_LT(e.dst, 128u);
    }
}

TEST(Generators, SkewedHasHigherVarianceThanUniform)
{
    const EdgeId edges = 1u << 14;
    Csr skewed(generateRmat(10, edges, rmatSkewed(), 5));
    Csr uniform(generateRmat(10, edges, rmatUniform(), 5));
    const auto s = degreeStats(skewed);
    const auto u = degreeStats(uniform);
    EXPECT_GT(s.coefficientOfVariation, 2.0 * u.coefficientOfVariation);
    EXPECT_GT(s.gini, u.gini);
}

TEST(Generators, UniformDeterministicAndBounded)
{
    Coo a = generateUniform(100, 500, 3);
    Coo b = generateUniform(100, 500, 3);
    EXPECT_TRUE(a.edges() == b.edges());
    for (const auto &e : a.edges()) {
        EXPECT_LT(e.src, 100u);
        EXPECT_LT(e.dst, 100u);
    }
}

TEST(Datasets, TableOneCatalog)
{
    const auto &ogb = ogbDatasets();
    ASSERT_EQ(ogb.size(), 9u);
    EXPECT_EQ(ogb.front().name, "ddi");
    EXPECT_EQ(ogb.front().numVertices, 4267u);
    EXPECT_EQ(ogb.front().numEdges, 1334889u);
    EXPECT_EQ(ogb.back().name, "papers");
    EXPECT_EQ(ogb.back().numVertices, 111059956u);
    EXPECT_EQ(ogb.back().numEdges, 1615685872u);
}

TEST(Datasets, LookupByName)
{
    const auto &d = datasetByName("products");
    EXPECT_EQ(d.numVertices, 2449029u);
    EXPECT_EQ(d.numEdges, 61859140u);
}

TEST(Datasets, PowerGraphsPresent)
{
    EXPECT_EQ(datasetByName("power-16").numVertices, uint64_t{1} << 16);
    EXPECT_EQ(datasetByName("power-22").numVertices, uint64_t{1} << 22);
    EXPECT_EQ(allDatasets().size(), 11u);
}

TEST(Datasets, ProxyRespectsEdgeBudget)
{
    const auto proxy = buildProxy(datasetByName("products"), 1u << 14, 1);
    // Normalisation roughly doubles directed edges and adds loops;
    // allow generous slack but verify the down-scale happened.
    EXPECT_LT(proxy.adjacency.numEdges(), (1u << 14) * 4u);
    EXPECT_GT(proxy.scaleFactor, 1000.0);
}

TEST(Datasets, ProxyPreservesAverageDegreeWithinFactor)
{
    const auto &info = datasetByName("products");
    const auto proxy = buildProxy(info, 1u << 16, 1);
    const double published_degree =
        static_cast<double>(info.numEdges) /
        static_cast<double>(info.numVertices);
    const double proxy_degree = proxy.adjacency.averageDegree();
    // Symmetrization + self loops inflate degree up to ~2x + 1;
    // RMAT power-of-two rounding can shrink it. Check the ballpark.
    EXPECT_GT(proxy_degree, published_degree / 4.0);
    EXPECT_LT(proxy_degree, published_degree * 4.0);
}

TEST(Datasets, SmallGraphProxyIsFullScale)
{
    const auto proxy = buildProxy(datasetByName("ddi"), 1u << 22, 1);
    EXPECT_DOUBLE_EQ(proxy.scaleFactor, 1.0);
}

TEST(GraphStats, UniformDegreesGiniNearZero)
{
    // A ring: every vertex has degree exactly 1 -> gini == 0.
    Coo coo(64);
    for (VertexId v = 0; v < 64; ++v)
        coo.addEdge(v, (v + 1) % 64);
    const auto stats = degreeStats(Csr(coo));
    EXPECT_DOUBLE_EQ(stats.mean, 1.0);
    EXPECT_NEAR(stats.gini, 0.0, 1e-9);
    EXPECT_DOUBLE_EQ(stats.coefficientOfVariation, 0.0);
}

TEST(GraphStats, StarGraphIsMaximallySkewed)
{
    Coo coo(100);
    for (VertexId v = 1; v < 100; ++v)
        coo.addEdge(0, v);
    const auto stats = degreeStats(Csr(coo));
    EXPECT_GT(stats.gini, 0.95);
    EXPECT_DOUBLE_EQ(stats.maxDegree, 99.0);
    EXPECT_NEAR(stats.fracIsolated, 0.99, 0.001);
}

} // namespace

// ----------------------------------------------------- partitioning

#include "graph/partition.hpp"

namespace {

using namespace pgcn::graph;

TEST(Partition, HashCoversAllParts)
{
    const auto assignment = hashPartition(10000, 8);
    ASSERT_EQ(assignment.size(), 10000u);
    std::vector<int> counts(8, 0);
    for (unsigned p : assignment) {
        ASSERT_LT(p, 8u);
        ++counts[p];
    }
    for (int c : counts)
        EXPECT_GT(c, 10000 / 8 / 2); // roughly balanced
}

TEST(Partition, SinglePartHasNoCut)
{
    Coo coo = generateRmat(8, 2000, rmatSkewed(), 4);
    Csr csr(coo);
    const auto stats =
        evaluatePartition(csr, hashPartition(csr.numVertices(), 1), 1);
    EXPECT_EQ(stats.cutEdges, 0u);
    EXPECT_DOUBLE_EQ(stats.cutFraction, 0.0);
    EXPECT_DOUBLE_EQ(stats.replicationFactor, 1.0);
}

TEST(Partition, RangePartitionIsMonotoneAndComplete)
{
    Coo coo = generateRmat(9, 4000, rmatSkewed(), 5);
    Csr csr(coo);
    const auto assignment = rangePartitionByEdges(csr, 4);
    ASSERT_EQ(assignment.size(), csr.numVertices());
    for (size_t v = 1; v < assignment.size(); ++v)
        EXPECT_GE(assignment[v], assignment[v - 1]);
    EXPECT_EQ(assignment.back(), 3u);
}

TEST(Partition, RangeBalancesEdgesBetterThanVertexSkew)
{
    // On a skewed graph, balancing by edges keeps the max part load
    // close to the average.
    Coo coo = generateRmat(10, 20000, rmatSkewed(), 6);
    Csr csr(coo);
    const auto stats = evaluatePartition(
        csr, rangePartitionByEdges(csr, 8), 8);
    EXPECT_LT(stats.maxLoadImbalance, 2.0);
    EXPECT_GE(stats.maxLoadImbalance, 1.0);
}

TEST(Partition, CutFractionGrowsWithParts)
{
    Coo coo = generateRmat(10, 20000, rmatSkewed(), 7);
    Csr csr = normalizedAdjacency(coo);
    const auto s2 =
        evaluatePartition(csr, hashPartition(csr.numVertices(), 2), 2);
    const auto s16 =
        evaluatePartition(csr, hashPartition(csr.numVertices(), 16), 16);
    EXPECT_GT(s16.cutFraction, s2.cutFraction);
    EXPECT_GT(s16.replicationFactor, s2.replicationFactor);
}

TEST(Partition, HashCutMatchesExpectationOnRandomGraph)
{
    // With random hashing into p parts, an edge is cut with
    // probability (p-1)/p.
    Coo coo = generateUniform(2000, 40000, 8);
    Csr csr(coo);
    const auto stats =
        evaluatePartition(csr, hashPartition(csr.numVertices(), 4), 4);
    EXPECT_NEAR(stats.cutFraction, 0.75, 0.02);
}

TEST(Partition, GhostBytesArithmetic)
{
    PartitionStats stats;
    stats.replicationFactor = 1.5;
    // 1000 vertices, K=8: ghosts = 0.5 * 1000 rows of 32 B.
    EXPECT_DOUBLE_EQ(ghostExchangeBytes(stats, 1000, 8), 500.0 * 32.0);
}

} // namespace

// ------------------------------------------------------- persistence

#include <cstdio>
#include <fstream>

#include "graph/io.hpp"
#include "graph/normalize.hpp"
#include "test_paths.hpp"

namespace {

using namespace pgcn::graph;

class IoFixture : public ::testing::Test
{
  protected:
    std::string
    tempPath(const char *suffix)
    {
        // Unique per test and process: ctest -j shards must not race
        // on these files.
        return pgcn_test::testPath(suffix);
    }
};

TEST_F(IoFixture, EdgeListRoundTrip)
{
    Coo original = generateRmat(7, 800, rmatSkewed(), 12);
    const auto path = tempPath("edges.txt");
    saveEdgeListText(original, path);
    Coo loaded = loadEdgeListText(path);
    EXPECT_EQ(loaded.numVertices(), original.numVertices());
    ASSERT_EQ(loaded.numEdges(), original.numEdges());
    EXPECT_TRUE(loaded.edges() == original.edges());
    std::remove(path.c_str());
}

TEST_F(IoFixture, EdgeListWithoutHeaderInfersVertices)
{
    const auto path = tempPath("noheader.txt");
    {
        std::ofstream out(path);
        out << "0 5\n3 2\n# a comment\n5 0 2.5\n";
    }
    Coo loaded = loadEdgeListText(path);
    EXPECT_EQ(loaded.numVertices(), 6u);
    EXPECT_EQ(loaded.numEdges(), 3u);
    EXPECT_FLOAT_EQ(loaded.edges()[2].weight, 2.5f);
    std::remove(path.c_str());
}

TEST_F(IoFixture, CsrBinaryRoundTrip)
{
    Csr original = normalizedAdjacency(generateRmat(8, 2000,
                                                    rmatSkewed(), 13));
    const auto path = tempPath("graph.csr");
    saveCsrBinary(original, path);
    Csr loaded = loadCsrBinary(path);
    EXPECT_EQ(loaded.numVertices(), original.numVertices());
    ASSERT_EQ(loaded.numEdges(), original.numEdges());
    EXPECT_EQ(loaded.rowOffsets(), original.rowOffsets());
    EXPECT_EQ(loaded.cols(), original.cols());
    EXPECT_EQ(loaded.vals(), original.vals());
    std::remove(path.c_str());
}

TEST_F(IoFixture, RejectsWrongMagicThrows)
{
    const auto path = tempPath("bogus.csr");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is definitely not a CSR container";
    }
    EXPECT_THROW(loadCsrBinary(path), pgcn::GraphIoError);
    std::remove(path.c_str());
}

TEST_F(IoFixture, RejectsMalformedEdgeThrows)
{
    const auto path = tempPath("bad.txt");
    {
        std::ofstream out(path);
        out << "0 1\nnot numbers\n";
    }
    EXPECT_THROW(loadEdgeListText(path), pgcn::GraphIoError);
    std::remove(path.c_str());
}

TEST_F(IoFixture, RejectsOutOfRangeEndpointThrows)
{
    const auto path = tempPath("range.txt");
    {
        std::ofstream out(path);
        out << "# vertices 4\n0 9\n";
    }
    EXPECT_THROW(loadEdgeListText(path), pgcn::GraphIoError);
    std::remove(path.c_str());
}

} // namespace
