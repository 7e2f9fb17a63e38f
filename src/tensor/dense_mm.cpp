#include "tensor/dense_mm.hpp"

#include <algorithm>

#include "kernels/simd.hpp"
#include "parallel/thread_pool.hpp"

namespace pgcn::tensor {

namespace {

/** GEMM row panels (kGemmMr rows each) per pool work item. */
constexpr uint64_t kGemmPanelsPerChunk = 16;

void
checkGemmShapes(const DenseMatrix &a, const DenseMatrix &b)
{
    PGCN_ASSERT(a.cols() == b.rows(),
                "gemm shape mismatch: " << a.rows() << "x" << a.cols()
                                        << " * " << b.rows() << "x"
                                        << b.cols());
}

} // namespace

void
denseMmReference(const DenseMatrix &a, const DenseMatrix &b,
                 DenseMatrix &out)
{
    checkGemmShapes(a, b);
    out.resize(a.rows(), b.cols());
    for (uint64_t i = 0; i < a.rows(); ++i) {
        for (uint64_t k = 0; k < a.cols(); ++k) {
            const float aik = a.at(i, k);
            if (aik == 0.0f)
                continue;
            const auto brow = b.row(k);
            auto orow = out.row(i);
            for (uint64_t j = 0; j < b.cols(); ++j)
                orow[j] += aik * brow[j];
        }
    }
}

const float *
packForGemm(const DenseMatrix &b)
{
    thread_local kernels::simd::AlignedBuffer buf;
    thread_local uint64_t buf_elems = 0;
    const uint64_t elems =
        kernels::simd::gemmPackBufferElems(b.cols(), b.rows());
    if (elems > buf_elems) {
        buf = kernels::simd::makeAlignedBuffer(elems);
        buf_elems = elems;
    }
    kernels::simd::ops().gemmPackB(b.data(), b.cols(), b.cols(), b.rows(),
                                   buf.get());
    return buf.get();
}

void
denseMmBlocked(const DenseMatrix &a, const DenseMatrix &b, DenseMatrix &out,
               parallel::ThreadPool *pool)
{
    checkGemmShapes(a, b);
    const uint64_t m = a.rows();
    const uint64_t kk = a.cols();
    const uint64_t n = b.cols();
    out.resizeForOverwrite(m, n);
    if (m == 0 || n == 0)
        return;

    const auto &ops = kernels::simd::ops();
    // B is packed once, on the calling thread; the row panels then
    // read it concurrently. Each panel is kGemmMr rows of A and C.
    const float *pack = packForGemm(b);
    const uint64_t mr = kernels::simd::kGemmMr;
    const uint64_t panels = (m + mr - 1) / mr;
    const auto run = [&](uint64_t p0, uint64_t p1) {
        const uint64_t r0 = p0 * mr;
        const uint64_t r1 = std::min(p1 * mr, m);
        ops.gemmPrepacked(a.data() + r0 * kk, kk, pack, out.data() + r0 * n,
                          n, r1 - r0, n, kk, /*accumulate=*/false);
    };
    // Rows are independent, so the split does not change the result.
    if (pool == nullptr || panels <= kGemmPanelsPerChunk) {
        run(0, panels);
        return;
    }
    pool->parallelFor(panels, parallel::Schedule::Dynamic,
                      kGemmPanelsPerChunk,
                      [&](unsigned, uint64_t p0, uint64_t p1) {
                          run(p0, p1);
                      });
}

void
reluInPlace(DenseMatrix &m)
{
    kernels::simd::ops().relu(m.data(), m.size());
}

void
addBiasInPlace(DenseMatrix &m, std::span<const float> bias)
{
    PGCN_ASSERT(bias.size() == m.cols(),
                "bias length " << bias.size() << " != cols " << m.cols());
    kernels::simd::ops().addBias(m.data(), bias.data(), m.rows(), m.cols());
}

} // namespace pgcn::tensor
