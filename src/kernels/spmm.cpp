#include "kernels/spmm.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "kernels/simd.hpp"
#include "parallel/atomic_float.hpp"

namespace pgcn::kernels {

using graph::Csr;
using graph::EdgeId;
using graph::VertexId;
using tensor::DenseMatrix;

namespace {

void
checkShapes(const Csr &a, const DenseMatrix &h_in)
{
    if (h_in.rows() != a.numVertices()) {
        PGCN_THROW(ShapeError, "SpMM input rows "
                                   << h_in.rows() << " != |V| = "
                                   << a.numVertices());
    }
}

} // namespace

std::vector<VertexId>
nnzBalancedRowChunks(std::span<const EdgeId> row_offsets, unsigned parts)
{
    PGCN_ASSERT(!row_offsets.empty(), "row offsets must have size rows+1");
    PGCN_ASSERT(parts > 0, "nnz chunking needs at least one part");
    const uint64_t rows = row_offsets.size() - 1;
    const EdgeId base = row_offsets.front();
    const EdgeId nnz = row_offsets.back() - base;

    std::vector<VertexId> bounds(parts + 1);
    bounds[0] = 0;
    for (unsigned p = 1; p < parts; ++p) {
        const EdgeId target = base + nnz * p / parts;
        const auto it = std::lower_bound(row_offsets.begin(),
                                         row_offsets.end(), target);
        const auto r = std::min<uint64_t>(
            static_cast<uint64_t>(it - row_offsets.begin()), rows);
        bounds[p] = std::max(bounds[p - 1], static_cast<VertexId>(r));
    }
    bounds[parts] = static_cast<VertexId>(rows);
    return bounds;
}

std::vector<VertexId>
nnzBalancedRowChunksAligned(std::span<const EdgeId> row_offsets,
                            std::span<const VertexId> boundaries,
                            unsigned parts)
{
    PGCN_ASSERT(!row_offsets.empty(), "row offsets must have size rows+1");
    PGCN_ASSERT(parts > 0, "nnz chunking needs at least one part");
    const uint64_t rows = row_offsets.size() - 1;
    PGCN_ASSERT(boundaries.size() >= 2 && boundaries.front() == 0 &&
                    boundaries.back() == rows,
                "island boundaries must span [0, rows]");
    const EdgeId base = row_offsets.front();
    const EdgeId nnz = row_offsets.back() - base;

    // Cumulative non-zeros at each island boundary; the split targets
    // are snapped to the boundary whose cumulative count is nearest.
    std::vector<EdgeId> cum(boundaries.size());
    for (size_t b = 0; b < boundaries.size(); ++b)
        cum[b] = row_offsets[boundaries[b]] - base;

    std::vector<VertexId> bounds(parts + 1);
    bounds[0] = 0;
    for (unsigned p = 1; p < parts; ++p) {
        const EdgeId target = nnz * p / parts;
        const auto it = std::lower_bound(cum.begin(), cum.end(), target);
        size_t b = static_cast<size_t>(it - cum.begin());
        // lower_bound gives the first boundary at/after the target;
        // the one before may be closer.
        if (b == cum.size())
            b = cum.size() - 1;
        else if (b > 0 && target - cum[b - 1] < cum[b] - target)
            b -= 1;
        bounds[p] = std::max(bounds[p - 1], boundaries[b]);
    }
    bounds[parts] = static_cast<VertexId>(rows);
    return bounds;
}

void
spmmReference(const Csr &a, const DenseMatrix &h_in, DenseMatrix &h_out)
{
    checkShapes(a, h_in);
    const uint64_t k = h_in.cols();
    h_out.resize(a.numVertices(), k);
    const auto &offsets = a.rowOffsets();
    const auto &cols = a.cols();
    const auto &vals = a.vals();
    for (VertexId u = 0; u < a.numVertices(); ++u) {
        auto out = h_out.row(u);
        for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e) {
            const auto in = h_in.row(cols[e]);
            const float w = vals[e];
            for (uint64_t j = 0; j < k; ++j)
                out[j] += w * in[j];
        }
    }
}

void
spmmVertexParallel(const Csr &a, const DenseMatrix &h_in,
                   DenseMatrix &h_out, parallel::ThreadPool &pool,
                   uint64_t chunk_rows)
{
    checkShapes(a, h_in);
    const uint64_t k = h_in.cols();
    h_out.resizeForOverwrite(a.numVertices(), k);
    const auto &ops = simd::ops();
    const uint64_t *offsets = a.rowOffsets().data();
    const uint32_t *cols = a.cols().data();
    const float *vals = a.vals().data();
    float *out = h_out.data();
    const float *in = h_in.data();

    pool.parallelFor(
        a.numVertices(), parallel::Schedule::Dynamic, chunk_rows,
        [&](unsigned, uint64_t begin, uint64_t end) {
            ops.spmmRowRange(out, in, k, offsets, cols, vals, begin, end,
                             /*out_row_base=*/0);
        });
}

void
spmmEdgeParallel(const Csr &a, const DenseMatrix &h_in, DenseMatrix &h_out,
                 parallel::ThreadPool &pool)
{
    checkShapes(a, h_in);
    const uint64_t k = h_in.cols();
    h_out.resize(a.numVertices(), k);
    const EdgeId nnz = a.numEdges();
    if (nnz == 0 || k == 0)
        return;

    const auto &ops = simd::ops();
    const uint64_t *offsets = a.rowOffsets().data();
    const uint32_t *cols = a.cols().data();
    const float *vals = a.vals().data();
    const float *in = h_in.data();
    float *out = h_out.data();
    const unsigned num_threads = pool.numThreads();

    pool.parallelRegion([&](unsigned t) {
        const EdgeId start = nnz * t / num_threads;
        const EdgeId stop = nnz * (t + 1) / num_threads;
        if (start >= stop)
            return;

        // Algorithm 2 line 4: binary search for the rows owning the
        // first and last non-zero of this thread's span.
        const VertexId first_row = a.rowOfEdge(start);
        const VertexId last_row = a.rowOfEdge(stop - 1);
        // A row is *shared* with a neighbouring thread iff this span
        // does not cover all of it; only those need the private
        // accumulator + atomic flush (Algorithm 2 lines 5/7). All
        // interior rows are exclusively owned and take the vectorized
        // overwrite path.
        const bool first_shared = start > offsets[first_row];
        const bool last_shared = stop < offsets[last_row + 1];

        // Per-thread K-wide accumulator, owned by the pool: reused
        // across calls, no allocation after the first.
        float *buffer = pool.scratchFloats(t, k);
        auto accumulate_flush = [&](VertexId row, EdgeId e0, EdgeId e1) {
            std::memset(buffer, 0, k * sizeof(float));
            for (EdgeId e = e0; e < e1; ++e) {
                ops.axpy(buffer,
                         in + static_cast<uint64_t>(cols[e]) * k, vals[e],
                         k);
            }
            float *out_row = out + static_cast<uint64_t>(row) * k;
            for (uint64_t j = 0; j < k; ++j) {
                if (buffer[j] != 0.0f)
                    parallel::atomicAddFloat(out_row + j, buffer[j]);
            }
        };

        if (first_row == last_row) {
            if (first_shared || last_shared) {
                accumulate_flush(first_row, start, stop);
            } else {
                ops.spmmRowRange(out, in, k, offsets, cols, vals,
                                 first_row, first_row + 1, 0);
            }
            return;
        }

        if (first_shared)
            accumulate_flush(first_row, start, offsets[first_row + 1]);
        const VertexId interior_begin =
            first_row + (first_shared ? 1 : 0);
        const VertexId interior_end = last_row + (last_shared ? 0 : 1);
        if (interior_begin < interior_end) {
            ops.spmmRowRange(out, in, k, offsets, cols, vals,
                             interior_begin, interior_end, 0);
        }
        if (last_shared)
            accumulate_flush(last_row, offsets[last_row], stop);
    });
}

void
spmmNnzBalanced(const Csr &a, const DenseMatrix &h_in, DenseMatrix &h_out,
                parallel::ThreadPool &pool,
                std::span<const VertexId> island_boundaries)
{
    checkShapes(a, h_in);
    const uint64_t k = h_in.cols();
    h_out.resizeForOverwrite(a.numVertices(), k);
    if (a.numVertices() == 0)
        return;

    const auto &ops = simd::ops();
    const auto bounds =
        island_boundaries.empty()
            ? nnzBalancedRowChunks(a.rowOffsets(), pool.numThreads())
            : nnzBalancedRowChunksAligned(a.rowOffsets(),
                                          island_boundaries,
                                          pool.numThreads());
    const uint64_t *offsets = a.rowOffsets().data();
    const uint32_t *cols = a.cols().data();
    const float *vals = a.vals().data();
    float *out = h_out.data();
    const float *in = h_in.data();

    pool.parallelRegion([&](unsigned t) {
        ops.spmmRowRange(out, in, k, offsets, cols, vals, bounds[t],
                         bounds[t + 1], /*out_row_base=*/0);
    });
}

} // namespace pgcn::kernels
