#include "core/gcn.hpp"

#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "kernels/spmm.hpp"
#include "tensor/dense_mm.hpp"

namespace pgcn::core {

using tensor::DenseMatrix;

namespace {

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

GcnModel::GcnModel(const GcnModelConfig &config, uint64_t seed)
    : config_(config)
{
    const auto dims = config_.layerDims();
    weights_.reserve(dims.size());
    for (size_t l = 0; l < dims.size(); ++l) {
        DenseMatrix w(dims[l].inDim, dims[l].outDim);
        // Glorot-style scale keeps activations bounded through layers.
        const float scale =
            1.0f / std::sqrt(static_cast<float>(dims[l].inDim));
        w.fillRandom(seed + l, scale);
        weights_.push_back(std::move(w));
    }
}

const DenseMatrix &
GcnModel::weights(unsigned layer) const
{
    PGCN_ASSERT(layer < weights_.size(),
                "layer " << layer << " out of " << weights_.size());
    return weights_[layer];
}

DenseMatrix
GcnModel::infer(const graph::Csr &adjacency, const DenseMatrix &features,
                parallel::ThreadPool &pool, CpuSpmmKind spmm_kind,
                KernelBreakdown *breakdown_out) const
{
    if (features.rows() != adjacency.numVertices()) {
        PGCN_THROW(ShapeError, "feature rows "
                                   << features.rows() << " != |V| = "
                                   << adjacency.numVertices());
    }
    if (features.cols() != config_.inputDim) {
        PGCN_THROW(ShapeError, "feature dim "
                                   << features.cols() << " != input dim "
                                   << config_.inputDim);
    }

    KernelBreakdown breakdown;
    auto run_spmm = [&](const DenseMatrix &in, DenseMatrix &out) {
        const double t0 = nowNs();
        switch (spmm_kind) {
        case CpuSpmmKind::VertexParallel:
            kernels::spmmVertexParallel(adjacency, in, out, pool);
            break;
        case CpuSpmmKind::EdgeParallel:
            kernels::spmmEdgeParallel(adjacency, in, out, pool);
            break;
        }
        breakdown.spmmNs += nowNs() - t0;
    };
    auto run_dense = [&](const DenseMatrix &in, const DenseMatrix &w,
                         DenseMatrix &out) {
        const double t0 = nowNs();
        tensor::denseMmBlocked(in, w, out, &pool);
        breakdown.denseNs += nowNs() - t0;
    };
    // Per-thread layer buffers, kept across passes like the GEMM pack
    // scratch: `mid` joins the GEMM and the SpMM of a layer, `act`
    // carries the activations to the next layer. Reshaping them into
    // existing capacity means a steady-state pass faults in no fresh
    // pages; only the logits, written by the last layer, are new.
    // One buffer pair serves every layer: each layer reads `act` into
    // `mid` before it writes `act` again.
    thread_local DenseMatrix mid;
    thread_local DenseMatrix act;
    DenseMatrix logits;
    const DenseMatrix *in = &features;
    for (size_t l = 0; l < weights_.size(); ++l) {
        const bool last = l + 1 == weights_.size();
        DenseMatrix &out = last ? logits : act;
        if (config_.order == LayerOrder::TransformThenAggregate) {
            // A (H W): update first, aggregate at K_out.
            run_dense(*in, weights_[l], mid);
            run_spmm(mid, out);
        } else {
            // (A H) W: the paper's Eq. 1 order, aggregate at K_in.
            run_spmm(*in, mid);
            run_dense(mid, weights_[l], out);
        }

        // Glue: activation between layers (none after the last).
        const double t0 = nowNs();
        if (!last)
            tensor::reluInPlace(out, &pool);
        breakdown.glueNs += nowNs() - t0;

        in = &act;
    }

    if (breakdown_out != nullptr)
        *breakdown_out = breakdown;
    return logits;
}

} // namespace pgcn::core
