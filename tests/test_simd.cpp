/**
 * @file
 * Tests for the runtime SIMD dispatch layer. Dispatch mechanics
 * (detection, forcing, env override fallback) are checked directly;
 * every kernel in the Ops table is property-tested against a plain
 * scalar re-implementation, for EVERY tier available on the host, so
 * a wrong tail path or a bad FMA grouping in one backend fails by
 * name. Widths straddle all tail regimes: sub-lane, one lane, 4-lane
 * unroll boundary, and large-prime.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "kernels/simd.hpp"

namespace {

using namespace pgcn::kernels;
using simd::Ops;
using simd::Tier;

/** FMA-tolerant elementwise comparison for raw buffers. */
void
expectClose(const float *got, const float *want, uint64_t n,
            float rtol = 1e-5f, float atol = 1e-6f)
{
    for (uint64_t i = 0; i < n; ++i) {
        const float tol = atol + rtol * std::abs(want[i]);
        ASSERT_NEAR(got[i], want[i], tol) << "at element " << i;
    }
}

std::vector<float>
randomVec(uint64_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<float> v(n);
    for (auto &x : v)
        x = dist(rng);
    return v;
}

// Widths chosen to straddle every tail regime of every tier: scalar
// remainders, exactly one vector, the 4-register unroll boundary
// (4*16 = 64 for AVX-512), and a large prime.
const uint64_t kWidths[] = {1, 2, 7, 8, 15, 16, 17, 31, 32,
                            33, 63, 64, 65, 128, 257};

// --------------------------------------------------------- dispatch

TEST(SimdDispatch, ScalarTierAlwaysAvailable)
{
    const auto tiers = simd::availableTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_NE(std::find(tiers.begin(), tiers.end(), Tier::Scalar),
              tiers.end());
}

TEST(SimdDispatch, BestTierIsAvailable)
{
    const auto tiers = simd::availableTiers();
    EXPECT_NE(std::find(tiers.begin(), tiers.end(),
                        simd::detectBestTier()),
              tiers.end());
}

TEST(SimdDispatch, ForceTierPinsActiveTable)
{
    for (Tier t : simd::availableTiers()) {
        simd::forceTier(t);
        EXPECT_EQ(simd::activeTier(), t);
        EXPECT_EQ(simd::ops().tier, t);
    }
    simd::resetTier();
    // A PGCN_SIMD override (e.g. the forced-scalar CI job) governs
    // what reset resolves to; only the auto path picks the best tier.
    const char *env = std::getenv("PGCN_SIMD");
    if (env == nullptr || std::string_view(env) == "auto") {
        EXPECT_EQ(simd::activeTier(), simd::detectBestTier());
    } else {
        EXPECT_EQ(std::string_view(simd::tierName(simd::activeTier())),
                  std::string_view(env));
    }
}

TEST(SimdDispatch, OpsForReturnsMatchingTier)
{
    for (Tier t : simd::availableTiers()) {
        const Ops &ops = simd::opsFor(t);
        EXPECT_EQ(ops.tier, t);
        EXPECT_GE(ops.width, 1u);
        EXPECT_NE(ops.axpy, nullptr);
        EXPECT_NE(ops.spmmRowRange, nullptr);
        EXPECT_NE(ops.spmmGatherRows, nullptr);
        EXPECT_NE(ops.relu, nullptr);
        EXPECT_NE(ops.addBias, nullptr);
        EXPECT_NE(ops.gemmPackB, nullptr);
        EXPECT_NE(ops.gemmPrepacked, nullptr);
    }
}

TEST(SimdDispatch, TierNamesAreStable)
{
    EXPECT_STREQ(simd::tierName(Tier::Scalar), "scalar");
    EXPECT_STREQ(simd::tierName(Tier::Avx2), "avx2");
    EXPECT_STREQ(simd::tierName(Tier::Avx512), "avx512");
}

TEST(SimdDispatch, ScalarWidthIsOne)
{
    EXPECT_EQ(simd::opsFor(Tier::Scalar).width, 1u);
}

TEST(SimdAligned, BuffersAre64ByteAligned)
{
    for (uint64_t n : {1u, 7u, 64u, 1000u}) {
        auto buf = simd::makeAlignedBuffer(n);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.get()) % 64, 0u);
    }
}

TEST(SimdAligned, LargeFreeIsRecycledForTheSameSize)
{
    constexpr uintptr_t kHugePage = uintptr_t{2} << 20;
    const uint64_t n = (uint64_t{3} << 20) / sizeof(float); // 3 MiB
    float *a = simd::alignedAlloc(n);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % kHugePage, 0u);
    a[0] = 1.0f;
    a[n - 1] = 2.0f;
    simd::alignedFree(a);
    float *b = simd::alignedAlloc(n);
    EXPECT_EQ(b, a);
    // Another request of the same rounded size (4 MiB) takes it too.
    simd::alignedFree(b);
    float *c = simd::alignedAlloc((uint64_t{4} << 20) / sizeof(float));
    EXPECT_EQ(c, a);
    // A different size gets a fresh mapping.
    float *d = simd::alignedAlloc((uint64_t{6} << 20) / sizeof(float));
    EXPECT_NE(d, c);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % kHugePage, 0u);
    simd::alignedFree(c);
    simd::alignedFree(d);
}

TEST(SimdAligned, ConcurrentLargeAllocAndFree)
{
    const uint64_t n = (uint64_t{2} << 20) / sizeof(float);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([n, t] {
            for (int i = 0; i < 50; ++i) {
                simd::AlignedBuffer buf = simd::makeAlignedBuffer(n);
                buf[0] = static_cast<float>(t);
                buf[n - 1] = static_cast<float>(i);
                EXPECT_EQ(buf[0], static_cast<float>(t));
                EXPECT_EQ(buf[n - 1], static_cast<float>(i));
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
}

// ------------------------------------------- per-tier kernel checks

/** Runs every Ops kernel against a scalar oracle on one tier. */
class SimdTierKernels : public ::testing::TestWithParam<Tier>
{
  protected:
    const Ops &
    ops() const
    {
        return simd::opsFor(GetParam());
    }
};

TEST_P(SimdTierKernels, AxpyMatchesScalarLoop)
{
    for (uint64_t k : kWidths) {
        const auto x = randomVec(k, 11);
        auto y = randomVec(k, 22);
        auto want = y;
        const float w = 0.37f;
        for (uint64_t j = 0; j < k; ++j)
            want[j] += w * x[j];
        ops().axpy(y.data(), x.data(), w, k);
        expectClose(y.data(), want.data(), k);
    }
}

TEST_P(SimdTierKernels, ReluClampsNegatives)
{
    for (uint64_t n : kWidths) {
        auto v = randomVec(n, 33);
        auto want = v;
        for (auto &x : want)
            x = std::max(x, 0.0f);
        ops().relu(v.data(), n);
        expectClose(v.data(), want.data(), n, 0.0f, 0.0f);
    }
}

TEST_P(SimdTierKernels, AddBiasBroadcastsPerColumn)
{
    for (uint64_t cols : kWidths) {
        const uint64_t rows = 5;
        auto m = randomVec(rows * cols, 44);
        const auto bias = randomVec(cols, 55);
        auto want = m;
        for (uint64_t r = 0; r < rows; ++r)
            for (uint64_t c = 0; c < cols; ++c)
                want[r * cols + c] += bias[c];
        ops().addBias(m.data(), bias.data(), rows, cols);
        expectClose(m.data(), want.data(), rows * cols);
    }
}

namespace csr {

/** A tiny hand-rolled CSR exercising empty rows and a dense row. */
struct Fixture
{
    std::vector<uint64_t> offsets;
    std::vector<uint32_t> cols;
    std::vector<float> vals;
    uint64_t rows;
    uint64_t numIn; ///< number of input feature rows
};

Fixture
adversarial()
{
    // Rows: [0] two edges, [1] empty, [2] dense (all 8 inputs),
    // [3] empty, [4] one edge, [5] empty (trailing).
    Fixture f;
    f.rows = 6;
    f.numIn = 8;
    f.offsets = {0, 2, 2, 10, 10, 11, 11};
    f.cols = {1, 5, 0, 1, 2, 3, 4, 5, 6, 7, 7};
    f.vals = randomVec(11, 66);
    return f;
}

std::vector<float>
referenceSpmm(const Fixture &f, const std::vector<float> &h, uint64_t k)
{
    std::vector<float> out(f.rows * k, 0.0f);
    for (uint64_t u = 0; u < f.rows; ++u)
        for (uint64_t e = f.offsets[u]; e < f.offsets[u + 1]; ++e)
            for (uint64_t j = 0; j < k; ++j)
                out[u * k + j] += f.vals[e] * h[f.cols[e] * k + j];
    return out;
}

} // namespace csr

TEST_P(SimdTierKernels, SpmmRowRangeMatchesScalar)
{
    const auto f = csr::adversarial();
    for (uint64_t k : kWidths) {
        const auto h = randomVec(f.numIn * k, 77);
        const auto want = csr::referenceSpmm(f, h, k);
        // Poison the output: overwrite semantics must zero empty rows.
        std::vector<float> out(f.rows * k, 123.0f);
        ops().spmmRowRange(out.data(), h.data(), k, f.offsets.data(),
                           f.cols.data(), f.vals.data(), 0, f.rows, 0);
        expectClose(out.data(), want.data(), f.rows * k, 1e-4f, 1e-5f);
    }
}

TEST_P(SimdTierKernels, SpmmRowRangeHonoursOutRowBase)
{
    const auto f = csr::adversarial();
    const uint64_t k = 17;
    const auto h = randomVec(f.numIn * k, 88);
    const auto want = csr::referenceSpmm(f, h, k);
    // Compute rows [2, 5) into a 3-row tile based at row 2.
    std::vector<float> tile(3 * k, -7.0f);
    ops().spmmRowRange(tile.data(), h.data(), k, f.offsets.data(),
                       f.cols.data(), f.vals.data(), 2, 5,
                       /*out_row_base=*/2);
    expectClose(tile.data(), want.data() + 2 * k, 3 * k, 1e-4f, 1e-5f);
}

TEST_P(SimdTierKernels, SpmmGatherRowsAccumulates)
{
    // Tile-local view: 3 gathered rows mapping to output rows
    // {4, 0, 2}, accumulating on top of existing output content.
    const uint64_t k = 33;
    const uint64_t num_in = 6;
    const uint64_t num_out = 5;
    std::vector<uint32_t> row_ids = {4, 0, 2};
    std::vector<uint64_t> offsets = {0, 2, 2, 5}; // middle row empty
    std::vector<uint32_t> cols = {1, 3, 0, 2, 5};
    const auto vals = randomVec(5, 99);
    const auto h = randomVec(num_in * k, 111);
    auto out = randomVec(num_out * k, 222);
    auto want = out;
    for (uint64_t i = 0; i < row_ids.size(); ++i)
        for (uint64_t e = offsets[i]; e < offsets[i + 1]; ++e)
            for (uint64_t j = 0; j < k; ++j)
                want[row_ids[i] * k + j] += vals[e] * h[cols[e] * k + j];
    ops().spmmGatherRows(out.data(), h.data(), k, row_ids.data(),
                         offsets.data(), cols.data(), vals.data(), 0,
                         row_ids.size());
    expectClose(out.data(), want.data(), num_out * k, 1e-4f, 1e-5f);
}

namespace gemm {

std::vector<float>
reference(const std::vector<float> &a, const std::vector<float> &b,
          std::vector<float> c, uint64_t m, uint64_t n, uint64_t kk,
          bool accumulate)
{
    if (!accumulate)
        std::fill(c.begin(), c.end(), 0.0f);
    for (uint64_t i = 0; i < m; ++i)
        for (uint64_t p = 0; p < kk; ++p)
            for (uint64_t j = 0; j < n; ++j)
                c[i * n + j] += a[i * kk + p] * b[p * n + j];
    return c;
}

} // namespace gemm

TEST_P(SimdTierKernels, PackedGemmMatchesScalarTripleLoop)
{
    // Shapes straddle the 6-row microkernel and both panel tails,
    // plus KC-crossing depths (kk > 256).
    const struct
    {
        uint64_t m, n, kk;
    } shapes[] = {{1, 1, 1},   {6, 16, 8},   {7, 17, 9},
                  {5, 1, 3},   {13, 31, 64}, {64, 64, 64},
                  {6, 32, 300}, {23, 40, 257}, {3, 100, 7}};
    for (const auto &s : shapes) {
        for (bool accumulate : {false, true}) {
            const auto a = randomVec(s.m * s.kk, 1);
            const auto b = randomVec(s.kk * s.n, 2);
            auto c = randomVec(s.m * s.n, 3);
            const auto want =
                gemm::reference(a, b, c, s.m, s.n, s.kk, accumulate);
            auto pack = simd::makeAlignedBuffer(
                simd::gemmPackBufferElems(s.n, s.kk));
            ops().gemmPackB(b.data(), s.n, s.n, s.kk, pack.get());
            ops().gemmPrepacked(a.data(), s.kk, pack.get(), c.data(),
                                s.n, s.m, s.n, s.kk, accumulate);
            expectClose(c.data(), want.data(), s.m * s.n, 1e-4f,
                        1e-5f);
        }
    }
}

TEST_P(SimdTierKernels, PackedGemmZeroDepthZeroesOrKeepsC)
{
    const uint64_t m = 4, n = 9;
    auto pack =
        simd::makeAlignedBuffer(simd::gemmPackBufferElems(n, 0) + 1);
    auto c = randomVec(m * n, 4);
    auto kept = c;
    ops().gemmPrepacked(nullptr, 0, pack.get(), c.data(), n, m, n, 0,
                        /*accumulate=*/true);
    expectClose(c.data(), kept.data(), m * n, 0.0f, 0.0f);
    ops().gemmPrepacked(nullptr, 0, pack.get(), c.data(), n, m, n, 0,
                        /*accumulate=*/false);
    for (uint64_t i = 0; i < m * n; ++i)
        ASSERT_EQ(c[i], 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    AvailableTiers, SimdTierKernels,
    ::testing::ValuesIn(simd::availableTiers()),
    [](const ::testing::TestParamInfo<Tier> &info) {
        return std::string(simd::tierName(info.param));
    });

} // namespace
