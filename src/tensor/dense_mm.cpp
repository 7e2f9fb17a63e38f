#include "tensor/dense_mm.hpp"

#include <algorithm>
#include <functional>

#include "kernels/simd.hpp"
#include "parallel/thread_pool.hpp"

namespace pgcn::tensor {

namespace {

/** GEMM row panels (kGemmMr rows each) per pool work item. */
constexpr uint64_t kGemmPanelsPerChunk = 16;
/** Floats per ReLU work item, rounded to whole rows. */
constexpr uint64_t kReluChunkFloats = uint64_t{1} << 13;

/**
 * body(begin, end) over [0, count) in chunks of @p chunk taken from
 * the pool, or as one inline range when there is no pool or no more
 * than one chunk of work. Callers only split independent rows, so
 * the result does not depend on which thread ran which range.
 */
void
forChunks(parallel::ThreadPool *pool, uint64_t count, uint64_t chunk,
          const std::function<void(uint64_t, uint64_t)> &body)
{
    if (count == 0)
        return;
    if (pool == nullptr || count <= chunk) {
        body(0, count);
        return;
    }
    pool->parallelFor(count, parallel::Schedule::Dynamic, chunk,
                      [&](unsigned, uint64_t begin, uint64_t end) {
                          body(begin, end);
                      });
}

void
checkGemmShapes(const DenseMatrix &a, const DenseMatrix &b)
{
    PGCN_ASSERT(a.cols() == b.rows(),
                "gemm shape mismatch: " << a.rows() << "x" << a.cols()
                                        << " * " << b.rows() << "x"
                                        << b.cols());
}

/**
 * Per-thread pack scratch, reused across GEMM calls so repeated
 * layer updates do not re-allocate (and re-fault) panel storage.
 */
float *
packScratch(uint64_t elems)
{
    thread_local kernels::simd::AlignedBuffer buf;
    thread_local uint64_t buf_elems = 0;
    if (elems > buf_elems) {
        buf = kernels::simd::makeAlignedBuffer(elems);
        buf_elems = elems;
    }
    return buf.get();
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
    float *pack = packScratch(kernels::simd::gemmPackBufferElems(n, kk));
    ops.gemmPackB(b.data(), n, n, kk, pack);
    const uint64_t mr = kernels::simd::kGemmMr;
    forChunks(pool, (m + mr - 1) / mr, kGemmPanelsPerChunk,
              [&](uint64_t p0, uint64_t p1) {
                  const uint64_t r0 = p0 * mr;
                  const uint64_t r1 = std::min(p1 * mr, m);
                  ops.gemmPrepacked(a.data() + r0 * kk, kk, pack,
                                    out.data() + r0 * n, n, r1 - r0, n, kk,
                                    /*accumulate=*/false);
              });
}

void
reluInPlace(DenseMatrix &m, parallel::ThreadPool *pool)
{
    const auto &ops = kernels::simd::ops();
    const uint64_t cols = m.cols();
    const uint64_t rows_per_chunk =
        std::max<uint64_t>(kReluChunkFloats / std::max<uint64_t>(cols, 1), 1);
    forChunks(pool, m.rows(), rows_per_chunk,
              [&](uint64_t r0, uint64_t r1) {
                  ops.relu(m.data() + r0 * cols, (r1 - r0) * cols);
              });
}

void
addBiasInPlace(DenseMatrix &m, std::span<const float> bias)
{
    PGCN_ASSERT(bias.size() == m.cols(),
                "bias length " << bias.size() << " != cols " << m.cols());
    kernels::simd::ops().addBias(m.data(), bias.data(), m.rows(), m.cols());
}

} // namespace pgcn::tensor
