/**
 * @file
 * Functional CPU SpMM kernels: H_out = A~ * H_in (paper Algorithm 1).
 *
 * Four implementations, all but the reference vectorized along the
 * feature dimension through the runtime SIMD layer (kernels/simd.hpp)
 * with register-resident multi-accumulator inner loops:
 *
 *  - spmmReference: sequential scalar loop, obviously correct oracle.
 *  - spmmVertexParallel: the paper's optimized CPU baseline — one
 *    vertex (output row) per task, dynamic load balancing, no atomics.
 *  - spmmEdgeParallel: the paper's Algorithm 2 — non-zeros split
 *    evenly across threads, binary search for the starting row,
 *    atomic writeback at row boundaries. Rows fully owned by one
 *    thread take the vectorized no-atomic path; only the (at most
 *    two) rows shared with neighbouring threads go through the
 *    per-thread accumulator + atomic flush. On CPUs this still loses
 *    to vertex-parallel because of the atomics (Section V-A); on
 *    PIUMA the same algorithm wins thanks to hardware remote atomics.
 *  - spmmNnzBalanced: static equal-work partitioning — a prefix-sum
 *    (the CSR row-offset array) split into one row-aligned chunk of
 *    ~|E|/T non-zeros per thread, so skewed graphs balance without
 *    dynamic scheduling or atomics; optionally snapped to island
 *    boundaries.
 */
#ifndef PGCN_KERNELS_SPMM_HPP
#define PGCN_KERNELS_SPMM_HPP

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/dense_matrix.hpp"

namespace pgcn::kernels {

/**
 * Split rows into @p parts contiguous chunks of approximately equal
 * non-zero count, via binary search over the CSR prefix sums.
 *
 * @param row_offsets CSR row-offset array (size rows + 1, monotone).
 * @param parts Number of chunks (>= 1).
 * @return parts + 1 monotone row boundaries; chunk p is
 *         [result[p], result[p + 1]). Chunks may be empty when a
 *         single row holds more than |E| / parts non-zeros.
 */
std::vector<graph::VertexId>
nnzBalancedRowChunks(std::span<const graph::EdgeId> row_offsets,
                     unsigned parts);

/**
 * Like nnzBalancedRowChunks, but every chunk boundary is snapped to
 * the nearest island boundary (by non-zero count), so no island is
 * ever split across two chunks. With islandized orderings this keeps
 * each worker's feature working set equal to a whole number of
 * cache-sized islands instead of straddling two of them.
 *
 * @param row_offsets CSR row-offset array (size rows + 1, monotone).
 * @param boundaries  Monotone island row boundaries, 0 .. rows
 *                    inclusive (islandOrder / uniformIslands format).
 * @param parts Number of chunks (>= 1).
 * @return parts + 1 monotone row boundaries, each an element of
 *         @p boundaries (except that result[0] = 0 and
 *         result[parts] = rows always hold). Chunks may be empty when
 *         there are fewer islands than parts or one island dominates
 *         the non-zero count.
 */
std::vector<graph::VertexId>
nnzBalancedRowChunksAligned(std::span<const graph::EdgeId> row_offsets,
                            std::span<const graph::VertexId> boundaries,
                            unsigned parts);

/**
 * Sequential reference SpMM.
 *
 * @param a Sparse |V| x |V| matrix.
 * @param h_in Dense |V| x K input features.
 * @param h_out Dense |V| x K output; reshaped by the call (capacity
 *        is reused when sufficient).
 */
void spmmReference(const graph::Csr &a, const tensor::DenseMatrix &h_in,
                   tensor::DenseMatrix &h_out);

/**
 * Vertex-parallel SpMM: each output row is produced by exactly one
 * thread, scheduled dynamically in @p chunk_rows batches for load
 * balance on skewed graphs.
 *
 * @param a Sparse matrix.
 * @param h_in Input features (|V| x K).
 * @param h_out Output features; reshaped by the call.
 * @param pool Thread pool to run on.
 * @param chunk_rows Dynamic-scheduling chunk (rows per grab).
 */
void spmmVertexParallel(const graph::Csr &a,
                        const tensor::DenseMatrix &h_in,
                        tensor::DenseMatrix &h_out,
                        parallel::ThreadPool &pool,
                        uint64_t chunk_rows = 64);

/**
 * Edge-parallel SpMM (paper Algorithm 2): the |E| non-zeros are split
 * into one contiguous span per thread; each thread binary-searches the
 * row containing its first non-zero. Shared boundary rows accumulate
 * into per-thread scratch (owned by the pool, no per-call allocation)
 * and flush with atomic adds; interior rows take the vectorized
 * exclusive-ownership path.
 *
 * @param a Sparse matrix.
 * @param h_in Input features (|V| x K).
 * @param h_out Output features; reshaped by the call.
 * @param pool Thread pool to run on.
 */
void spmmEdgeParallel(const graph::Csr &a, const tensor::DenseMatrix &h_in,
                      tensor::DenseMatrix &h_out,
                      parallel::ThreadPool &pool);

/**
 * NNZ-balanced SpMM: one statically-assigned, row-aligned, equal-work
 * chunk per thread (see nnzBalancedRowChunks). No atomics, no
 * scheduling overhead; the partition itself absorbs degree skew.
 *
 * Given @p island_boundaries, the chunks are instead snapped to those
 * boundaries (nnzBalancedRowChunksAligned), so each thread streams a
 * whole number of islands and its input working set is the islands'
 * own neighbourhoods. That only pays off when the CSR is actually
 * islandized; with uniform boundaries it degrades gracefully to a
 * slightly coarser nnz balance.
 *
 * @param a Sparse matrix.
 * @param h_in Input features (|V| x K).
 * @param h_out Output features; reshaped by the call.
 * @param pool Thread pool to run on.
 * @param island_boundaries Island row boundaries (0 .. |V|
 *        inclusive), or empty for plain nnz balance.
 */
void spmmNnzBalanced(const graph::Csr &a, const tensor::DenseMatrix &h_in,
                     tensor::DenseMatrix &h_out,
                     parallel::ThreadPool &pool,
                     std::span<const graph::VertexId> island_boundaries =
                         {});

} // namespace pgcn::kernels

#endif // PGCN_KERNELS_SPMM_HPP
