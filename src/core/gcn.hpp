/**
 * @file
 * The functional GCN inference engine: real computation on the CPU
 * kernels (SpMM + blocked GEMM + ReLU), with a measured wall-clock
 * breakdown in the paper's categories. This is the executable heart
 * of the library — what a downstream user runs on their own graph —
 * while the platform models in platforms.hpp project the same
 * workload onto the paper's three systems.
 *
 * Layer semantics follow the PyTorch-Geometric GCNConv the paper
 * profiles: transform-then-aggregate, H' = A~ (H W), with a ReLU
 * between layers (none after the last).
 */
#ifndef PGCN_CORE_GCN_HPP
#define PGCN_CORE_GCN_HPP

#include <vector>

#include "core/breakdown.hpp"
#include "core/gcn_config.hpp"
#include "graph/csr.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/dense_matrix.hpp"

namespace pgcn::core {

/** Which functional SpMM implementation the executor uses. */
enum class CpuSpmmKind
{
    VertexParallel, ///< the paper's optimized CPU baseline
    EdgeParallel,   ///< Algorithm 2 (atomics; slower on CPU)
};

/**
 * A GCN with materialised weights, runnable on any graph whose
 * adjacency is given as a (normalised) CSR.
 */
class GcnModel
{
  public:
    /**
     * Create a model with deterministic random weights.
     *
     * @param config Layer dimensions.
     * @param seed Weight-initialisation seed.
     */
    GcnModel(const GcnModelConfig &config, uint64_t seed = 7);

    /** The model configuration. */
    const GcnModelConfig &config() const { return config_; }

    /** Weight matrix of layer @p layer (inDim x outDim). */
    const tensor::DenseMatrix &weights(unsigned layer) const;

    /**
     * Run inference: features -> logits.
     *
     * The layers run as pool passes that break only where a SpMM
     * must gather from a complete matrix: transform-then-aggregate is
     * [G0] [S0 R G1] ... [S(L-1)] and aggregate-then-transform is
     * [S0 G0 R] ... [S(L-1) G(L-1)]. Inside a pass each worker takes
     * 96-row tiles and runs the pass's SpMM, ReLU and GEMM on one
     * tile while it is in cache. EdgeParallel's atomic SpMM needs the
     * whole matrix, so it runs first and the tiles start from its
     * output. Every element keeps its summation order, so the logits
     * are bit-identical to the unfused chain of denseMmBlocked, the
     * SpMM kernel and reluInPlace, and to any pool size.
     *
     * The passes ping-pong between two |V| x max-layer-width buffers
     * owned by the calling thread. They keep their capacity until
     * that thread exits, so a repeated call allocates nothing but the
     * returned logits. Concurrent calls from different threads are
     * safe: each thread has its own buffers.
     *
     * @param adjacency Normalised adjacency A~ (|V| x |V|).
     * @param features Input features (|V| x inputDim).
     * @param pool Thread pool for the parallel kernels.
     * @param spmm_kind Which SpMM implementation to use.
     * @param breakdown_out If non-null, receives the measured
     *        wall-clock breakdown (SpMM / Dense MM / Glue): each
     *        pass's wall time, split in proportion to the thread time
     *        its workers spent in each step. When null, no clock is
     *        read inside a tile.
     * @return Output logits (|V| x outputDim).
     */
    tensor::DenseMatrix infer(const graph::Csr &adjacency,
                              const tensor::DenseMatrix &features,
                              parallel::ThreadPool &pool,
                              CpuSpmmKind spmm_kind =
                                  CpuSpmmKind::VertexParallel,
                              KernelBreakdown *breakdown_out =
                                  nullptr) const;

  private:
    GcnModelConfig config_;
    std::vector<tensor::DenseMatrix> weights_;
};

} // namespace pgcn::core

#endif // PGCN_CORE_GCN_HPP
