/**
 * @file
 * Unit tests for src/tensor: dense matrix container, GEMM kernels
 * (blocked vs reference, property sweeps over shapes and pool sizes),
 * activations.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>

#include "parallel/thread_pool.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/dense_mm.hpp"

namespace {

using namespace pgcn::tensor;

TEST(DenseMatrix, ZeroInitialised)
{
    DenseMatrix m(3, 4);
    for (uint64_t r = 0; r < 3; ++r)
        for (uint64_t c = 0; c < 4; ++c)
            EXPECT_EQ(m.at(r, c), 0.0f);
}

TEST(DenseMatrix, RowViewWritesThrough)
{
    DenseMatrix m(2, 3);
    auto row = m.row(1);
    row[2] = 7.0f;
    EXPECT_EQ(m.at(1, 2), 7.0f);
}

TEST(DenseMatrix, FillRandomDeterministic)
{
    DenseMatrix a(5, 5), b(5, 5);
    a.fillRandom(42);
    b.fillRandom(42);
    EXPECT_TRUE(allClose(a, b, 0.0f, 0.0f));
}

TEST(DenseMatrix, FillRandomRespectsScale)
{
    DenseMatrix m(100, 10);
    m.fillRandom(1, 0.5f);
    for (uint64_t i = 0; i < m.size(); ++i) {
        EXPECT_LE(m.data()[i], 0.5f);
        EXPECT_GE(m.data()[i], -0.5f);
    }
}

TEST(DenseMatrix, BytesAccountsForFloats)
{
    DenseMatrix m(10, 20);
    EXPECT_EQ(m.bytes(), 10u * 20u * 4u);
}

TEST(AllClose, DetectsShapeMismatch)
{
    EXPECT_FALSE(allClose(DenseMatrix(2, 2), DenseMatrix(2, 3)));
}

TEST(AllClose, ToleratesSmallError)
{
    DenseMatrix a(1, 1), b(1, 1);
    a.at(0, 0) = 1.0f;
    b.at(0, 0) = 1.0f + 1e-6f;
    EXPECT_TRUE(allClose(a, b));
    b.at(0, 0) = 1.1f;
    EXPECT_FALSE(allClose(a, b));
}

TEST(DenseMm, IdentityIsNoOp)
{
    DenseMatrix a(4, 4);
    for (uint64_t i = 0; i < 4; ++i)
        a.at(i, i) = 1.0f;
    DenseMatrix x(4, 3);
    x.fillRandom(3);
    DenseMatrix out;
    denseMmReference(a, x, out);
    EXPECT_TRUE(allClose(out, x, 0.0f, 0.0f));
}

TEST(DenseMm, KnownSmallProduct)
{
    DenseMatrix a(2, 2, {1, 2, 3, 4});
    DenseMatrix b(2, 2, {5, 6, 7, 8});
    DenseMatrix out;
    denseMmReference(a, b, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 50.0f);
}

/** Blocked GEMM must agree with the reference across shapes that
 * exercise every tile-boundary case (exact multiple, remainder,
 * smaller-than-tile), inline and on pools of every size. */
class BlockedGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

/** Pool sizes the pooled kernels are checked on; 0 means no pool. */
constexpr unsigned kPoolSizes[] = {0, 1, 2, 3, 4, 7};

/** A pool of @p threads workers, or none for 0. */
std::unique_ptr<pgcn::parallel::ThreadPool>
makePool(unsigned threads)
{
    return threads == 0
               ? nullptr
               : std::make_unique<pgcn::parallel::ThreadPool>(threads);
}

TEST_P(BlockedGemmShapes, MatchesReference)
{
    const auto [m, k, n] = GetParam();
    DenseMatrix a(m, k), b(k, n);
    a.fillRandom(m * 131 + k);
    b.fillRandom(n * 17 + 5);
    DenseMatrix ref;
    denseMmReference(a, b, ref);
    for (unsigned threads : kPoolSizes) {
        const auto pool = makePool(threads);
        DenseMatrix out;
        denseMmBlocked(a, b, out, pool.get());
        EXPECT_TRUE(allClose(ref, out, 1e-4f, 1e-4f))
            << threads << " threads, max diff " << maxAbsDiff(ref, out);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, BlockedGemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(8, 8, 8),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 63, 31),
                      std::make_tuple(3, 100, 7),
                      std::make_tuple(128, 16, 256),
                      std::make_tuple(37, 41, 43),
                      std::make_tuple(385, 100, 47)));

/** Row counts around the kGemmMr = 6 panel and a pool chunk edge. */
constexpr uint64_t kPooledRows[] = {1, 5, 6, 7, 383, 385};

bool
bitIdentical(const DenseMatrix &a, const DenseMatrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

TEST(PooledGemm, BitIdenticalToInlineForEveryPoolSize)
{
    // Widths around one and two AVX-512 / AVX2 registers send the last
    // panel through the one-register and the masked micro-kernels.
    for (unsigned threads = 1; threads <= 7; ++threads) {
        pgcn::parallel::ThreadPool pool(threads);
        for (uint64_t n : {1u, 15u, 16u, 17u, 33u, 47u, 128u}) {
            for (uint64_t m : kPooledRows) {
                DenseMatrix a(m, 100), b(100, n);
                a.fillRandom(m + n);
                b.fillRandom(3);
                DenseMatrix want;
                denseMmBlocked(a, b, want);
                DenseMatrix got;
                denseMmBlocked(a, b, got, &pool);
                EXPECT_TRUE(bitIdentical(want, got))
                    << m << "x" << n << " on " << threads << " threads";
            }
        }
    }
}

TEST(Relu, ClampsNegatives)
{
    DenseMatrix m(1, 4, {-1.0f, 0.0f, 2.0f, -0.5f});
    reluInPlace(m);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(m.at(0, 2), 2.0f);
    EXPECT_FLOAT_EQ(m.at(0, 3), 0.0f);
}

TEST(Bias, AddsPerColumn)
{
    DenseMatrix m(2, 3);
    const std::vector<float> bias{1.0f, 2.0f, 3.0f};
    addBiasInPlace(m, bias);
    for (uint64_t r = 0; r < 2; ++r)
        for (uint64_t c = 0; c < 3; ++c)
            EXPECT_FLOAT_EQ(m.at(r, c), bias[c]);
}

TEST(DenseMatrixStorage, DataIs64ByteAligned)
{
    for (uint64_t rows : {1u, 3u, 17u, 100u}) {
        DenseMatrix m(rows, 5);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u)
            << rows << " rows";
    }
}

TEST(DenseMatrixStorage, ResizeKeepsCapacityWhenShrinking)
{
    DenseMatrix m(100, 8);
    m.fillRandom(1);
    const float *before = m.data();
    m.resize(10, 8); // fits existing capacity: no reallocation
    EXPECT_EQ(m.data(), before);
    EXPECT_EQ(m.rows(), 10u);
    EXPECT_EQ(m.cols(), 8u);
    // Content is reset, not carried over.
    for (uint64_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.data()[i], 0.0f);
    // Growing back within original capacity still reuses the buffer.
    m.resize(100, 8);
    EXPECT_EQ(m.data(), before);
    // Growing beyond it must reallocate.
    m.resize(200, 8);
    EXPECT_EQ(m.rows(), 200u);
    for (uint64_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(DenseMatrixStorage, ResizeForOverwriteSkipsZeroFill)
{
    DenseMatrix m(16, 8);
    m.fillRandom(2);
    const float *before = m.data();
    const float first = m.data()[0];
    m.resizeForOverwrite(16, 8); // same shape: no realloc, no memset
    EXPECT_EQ(m.data(), before);
    EXPECT_EQ(m.data()[0], first);
    m.resizeForOverwrite(4, 4); // shrink: buffer kept, shape updated
    EXPECT_EQ(m.data(), before);
    EXPECT_EQ(m.rows(), 4u);
    EXPECT_EQ(m.cols(), 4u);
    m.resizeForOverwrite(64, 64); // grow past capacity: realloc
    EXPECT_EQ(m.size(), 4096u);
}

TEST(DenseMatrixStorage, CopyAndMovePreserveContent)
{
    DenseMatrix a(7, 9);
    a.fillRandom(5);
    DenseMatrix copy = a;
    EXPECT_TRUE(allClose(a, copy, 0.0f, 0.0f));
    EXPECT_NE(copy.data(), a.data());

    DenseMatrix assigned;
    assigned = a;
    EXPECT_TRUE(allClose(a, assigned, 0.0f, 0.0f));

    const float *buf = copy.data();
    DenseMatrix moved = std::move(copy);
    EXPECT_EQ(moved.data(), buf); // steal, not copy
    EXPECT_TRUE(allClose(a, moved, 0.0f, 0.0f));
    EXPECT_EQ(copy.size(), 0u); // NOLINT: moved-from is empty

    DenseMatrix move_assigned;
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned.data(), buf);
    EXPECT_TRUE(allClose(a, move_assigned, 0.0f, 0.0f));
}

TEST(DenseMatrixStorage, CopyAssignReusesCapacity)
{
    DenseMatrix big(64, 16);
    big.fillRandom(3);
    DenseMatrix small(4, 4);
    small.fillRandom(4);
    const float *buf = big.data();
    big = small; // 16 floats into capacity 1024: reuse
    EXPECT_EQ(big.data(), buf);
    EXPECT_TRUE(allClose(big, small, 0.0f, 0.0f));
}

} // namespace

// --------------------------------------------------- row-wise ops

#include "tensor/ops.hpp"

namespace {

using namespace pgcn::tensor;

TEST(Softmax, RowsSumToOne)
{
    DenseMatrix m(4, 5);
    m.fillRandom(9, 3.0f);
    softmaxRowsInPlace(m);
    for (uint64_t r = 0; r < m.rows(); ++r) {
        float sum = 0.0f;
        for (float x : m.row(r)) {
            EXPECT_GE(x, 0.0f);
            EXPECT_LE(x, 1.0f);
            sum += x;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Softmax, StableUnderLargeValues)
{
    DenseMatrix m(1, 3, {1000.0f, 1001.0f, 999.0f});
    softmaxRowsInPlace(m);
    // No NaN/inf; ordering preserved.
    EXPECT_GT(m.at(0, 1), m.at(0, 0));
    EXPECT_GT(m.at(0, 0), m.at(0, 2));
    EXPECT_NEAR(m.at(0, 0) + m.at(0, 1) + m.at(0, 2), 1.0f, 1e-5f);
}

TEST(Argmax, PicksLargestPerRow)
{
    DenseMatrix m(3, 4, {0, 1, 2, 3, /**/ 9, 1, 2, 3, /**/ 0, 5, 5, 0});
    const auto idx = argmaxRows(m);
    ASSERT_EQ(idx.size(), 3u);
    EXPECT_EQ(idx[0], 3u);
    EXPECT_EQ(idx[1], 0u);
    EXPECT_EQ(idx[2], 1u); // tie -> lower index
}

TEST(RowNorms, KnownValues)
{
    DenseMatrix m(2, 2, {3, 4, 0, 0});
    const auto norms = rowL2Norms(m);
    EXPECT_FLOAT_EQ(norms[0], 5.0f);
    EXPECT_FLOAT_EQ(norms[1], 0.0f);
}

TEST(ScaleRows, AppliesPerRowFactor)
{
    DenseMatrix m(2, 2, {1, 2, 3, 4});
    const std::vector<float> factors{2.0f, 0.5f};
    scaleRowsInPlace(m, factors);
    EXPECT_FLOAT_EQ(m.at(0, 1), 4.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 1.5f);
}

TEST(Mean, MatchesManualAverage)
{
    DenseMatrix m(2, 2, {1, 2, 3, 6});
    EXPECT_FLOAT_EQ(mean(m), 3.0f);
    EXPECT_FLOAT_EQ(mean(DenseMatrix{}), 0.0f);
}

} // namespace
