/**
 * @file
 * Dense matrix multiplication (the GCN "update" phase, (.)W in the
 * paper) and elementwise activations (the "glue" sigma).
 *
 * The production GEMM is a packed, register-tiled kernel dispatched
 * through the runtime SIMD layer (kernels/simd.hpp): B is packed into
 * NR-column panels and the inner microkernel computes a ~6 x 16
 * register tile of C with FMA. Its scalar baseline is the same
 * kernel under PGCN_SIMD=scalar.
 */
#ifndef PGCN_TENSOR_DENSE_MM_HPP
#define PGCN_TENSOR_DENSE_MM_HPP

#include "tensor/dense_matrix.hpp"

namespace pgcn::parallel {
class ThreadPool;
} // namespace pgcn::parallel

namespace pgcn::tensor {

/**
 * Reference triple-loop GEMM: out = a * b. Simple and obviously
 * correct; used to validate the optimized kernels.
 *
 * @param a Left operand (m x k).
 * @param b Right operand (k x n).
 * @param out Result (m x n); resized (capacity kept) by the call.
 */
void denseMmReference(const DenseMatrix &a, const DenseMatrix &b,
                      DenseMatrix &out);

/**
 * Pack @p b (k x n) into the GEMM panel layout of the active SIMD tier
 * (kernels::simd::Ops::gemmPackB), ready for gemmPrepacked. The panels
 * live in scratch owned by the calling thread and reused across calls,
 * so repeated layer updates neither allocate nor re-fault them; they
 * stay valid until that thread packs again.
 */
const float *packForGemm(const DenseMatrix &b);

/**
 * Production dense-update GEMM: packed, register-tiled, SIMD-
 * dispatched (AVX-512 / AVX2 / scalar chosen at runtime). B is
 * packed once per call, on the calling thread, by packForGemm; the
 * rows of A then run in
 * kGemmMr-row panels on @p pool (inline without one). A row split
 * never reorders any element's sum, so the result is bit-identical
 * for every pool size, a null pool included.
 *
 * @param a Left operand (m x k).
 * @param b Right operand (k x n).
 * @param out Result (m x n); resized (capacity kept) by the call.
 * @param pool Threads for the row panels; nullptr runs them inline.
 */
void denseMmBlocked(const DenseMatrix &a, const DenseMatrix &b,
                    DenseMatrix &out, parallel::ThreadPool *pool = nullptr);

/**
 * In-place ReLU: x = max(x, 0), vectorized via the SIMD layer. Host
 * inference applies its ReLU inside the pass tiles (core/gcn.cpp);
 * this whole-matrix form serves references and replays.
 */
void reluInPlace(DenseMatrix &m);

/**
 * In-place row-wise bias add: m[r, :] += bias. Vectorized via the
 * SIMD layer.
 *
 * @param m Matrix to update.
 * @param bias Bias vector of length m.cols().
 */
void addBiasInPlace(DenseMatrix &m, std::span<const float> bias);

} // namespace pgcn::tensor

#endif // PGCN_TENSOR_DENSE_MM_HPP
