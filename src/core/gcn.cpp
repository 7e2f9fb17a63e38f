#include "core/gcn.hpp"

#include <chrono>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "kernels/simd.hpp"
#include "kernels/spmm.hpp"
#include "tensor/dense_mm.hpp"

namespace pgcn::core {

using tensor::DenseMatrix;

namespace {

/**
 * Rows per tile of a pass: 16 GEMM register panels. A 96 x 128 SpMM
 * tile is 48 KiB, so it is still in the worker's cache when its ReLU
 * and the GEMM that reads it run.
 */
constexpr uint64_t kTileRows = 16 * kernels::simd::kGemmMr;

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Thread time one worker spent in each step of a pass's tiles. */
struct alignas(64) StepTimes
{
    double spmmNs = 0.0;
    double glueNs = 0.0;
    double denseNs = 0.0;
};

/**
 * Books the steps of one tile into a worker's StepTimes. Without one
 * (no breakdown requested) it reads no clock.
 */
class StepClock
{
  public:
    explicit StepClock(StepTimes *times)
        : times_(times), last_(times != nullptr ? nowNs() : 0.0)
    {
    }

    /** Add the time since the previous lap to @p step. */
    void
    lap(double StepTimes::*step)
    {
        if (times_ == nullptr)
            return;
        const double now = nowNs();
        times_->*step += now - last_;
        last_ = now;
    }

  private:
    StepTimes *times_;
    double last_;
};

/**
 * Split a pass's wall time across the breakdown's categories in
 * proportion to the step times its workers summed.
 */
void
bookPass(KernelBreakdown &breakdown, double wall_ns,
         const std::vector<StepTimes> &times)
{
    StepTimes sum;
    for (const StepTimes &t : times) {
        sum.spmmNs += t.spmmNs;
        sum.glueNs += t.glueNs;
        sum.denseNs += t.denseNs;
    }
    const double busy = sum.spmmNs + sum.glueNs + sum.denseNs;
    if (busy <= 0.0) {
        breakdown.glueNs += wall_ns;
        return;
    }
    breakdown.spmmNs += wall_ns * sum.spmmNs / busy;
    breakdown.glueNs += wall_ns * sum.glueNs / busy;
    breakdown.denseNs += wall_ns * sum.denseNs / busy;
}

/**
 * One pool pass over all |V| rows. Each 96-row tile runs these steps
 * in order:
 *  1. the tile is `gather`'s rows aggregated through A~ (a SpMM into
 *     the worker's scratch), or else `rows`' own rows;
 *  2. ReLU on the tile, if `reluIn`;
 *  3. the tile times `weight` into the same rows of `out`, then ReLU
 *     on those, if `reluOut`.
 * A pass without a weight aggregates straight into `out`.
 */
struct Pass
{
    const DenseMatrix *gather = nullptr;
    DenseMatrix *rows = nullptr;
    bool reluIn = false;
    const DenseMatrix *weight = nullptr;
    bool reluOut = false;
    DenseMatrix *out = nullptr;
};

void
runPass(const Pass &pass, const graph::Csr &adjacency,
        parallel::ThreadPool &pool, KernelBreakdown *breakdown)
{
    const double t0 = breakdown != nullptr ? nowNs() : 0.0;
    const auto &ops = kernels::simd::ops();
    const uint64_t k =
        pass.gather != nullptr ? pass.gather->cols() : pass.rows->cols();
    const uint64_t n = pass.weight != nullptr ? pass.weight->cols() : k;
    pass.out->resizeForOverwrite(adjacency.numVertices(), n);
    const float *pack = nullptr;
    if (pass.weight != nullptr) {
        PGCN_ASSERT(pass.weight->rows() == k,
                    "weight rows " << pass.weight->rows() << " != " << k);
        pack = tensor::packForGemm(*pass.weight);
    }
    const uint64_t *offsets = adjacency.rowOffsets().data();
    const uint32_t *cols = adjacency.cols().data();
    const float *vals = adjacency.vals().data();
    float *out = pass.out->data();
    std::vector<StepTimes> times(breakdown != nullptr ? pool.numThreads()
                                                      : 0);

    pool.parallelFor(
        adjacency.numVertices(), parallel::Schedule::Dynamic, kTileRows,
        [&](unsigned tid, uint64_t r0, uint64_t r1) {
            StepClock clock(times.empty() ? nullptr : &times[tid]);
            const uint64_t m = r1 - r0;
            float *c = out + r0 * n;
            float *tile = nullptr;
            if (pass.gather == nullptr) {
                tile = pass.rows->data() + r0 * k;
            } else if (pass.weight == nullptr) {
                ops.spmmRowRange(out, pass.gather->data(), k, offsets, cols,
                                 vals, r0, r1, /*out_row_base=*/0);
                clock.lap(&StepTimes::spmmNs);
                return;
            } else {
                tile = pool.scratchFloats(tid, kTileRows * k);
                ops.spmmRowRange(tile, pass.gather->data(), k, offsets,
                                 cols, vals, r0, r1, /*out_row_base=*/r0);
                clock.lap(&StepTimes::spmmNs);
            }
            if (pass.reluIn) {
                ops.relu(tile, m * k);
                clock.lap(&StepTimes::glueNs);
            }
            ops.gemmPrepacked(tile, k, pack, c, n, m, n, k,
                              /*accumulate=*/false);
            clock.lap(&StepTimes::denseNs);
            if (pass.reluOut) {
                ops.relu(c, m * n);
                clock.lap(&StepTimes::glueNs);
            }
        });

    if (breakdown != nullptr)
        bookPass(*breakdown, nowNs() - t0, times);
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
    KernelBreakdown *booked = breakdown_out != nullptr ? &breakdown : nullptr;
    // Per-thread layer buffers, kept across calls like the pack
    // scratch: reshaping them into existing capacity means a
    // steady-state pass faults in no fresh pages; only the logits are
    // new. Each pass reads one and writes the other.
    thread_local DenseMatrix buffers[2];
    const auto other = [](const DenseMatrix *m) {
        return m == &buffers[0] ? &buffers[1] : &buffers[0];
    };
    DenseMatrix logits;
    const DenseMatrix *in = &features;

    // Runs a pass whose tiles start with the SpMM of *in, then points
    // `in` at its output: the logits after the last layer, else the
    // buffer the pass did not read. Only a pass with a weight can be
    // followed by another layer.
    const auto aggregate_pass = [&](Pass pass, bool last) {
        if (spmm_kind == CpuSpmmKind::EdgeParallel) {
            // Algorithm 2 splits non-zeros, not rows, so no row's sum
            // is complete before the whole SpMM is: it runs first, into
            // the other buffer, and the tiles start from its rows.
            DenseMatrix &agg = pass.weight != nullptr ? *other(in) : logits;
            const double t0 = nowNs();
            kernels::spmmEdgeParallel(adjacency, *in, agg, pool);
            breakdown.spmmNs += nowNs() - t0;
            in = &agg;
            if (pass.weight == nullptr)
                return;
            pass.rows = &agg;
        } else {
            pass.gather = in;
        }
        pass.out = last ? &logits : other(in);
        runPass(pass, adjacency, pool, booked);
        in = pass.out;
    };

    const size_t layers = weights_.size();
    if (config_.order == LayerOrder::TransformThenAggregate) {
        // A (H W): [G0] [S0 R G1] ... [S(L-1)], so every GEMM after
        // the first reads the SpMM tile that precedes it.
        const double t0 = nowNs();
        tensor::denseMmBlocked(features, weights_[0], buffers[0], &pool);
        breakdown.denseNs += nowNs() - t0;
        in = &buffers[0];
        for (size_t l = 1; l < layers; ++l)
            aggregate_pass(Pass{.reluIn = true, .weight = &weights_[l]},
                           false);
        aggregate_pass(Pass{}, true);
    } else {
        // (A H) W, the paper's Eq. 1 order: [S0 G0 R] ... [S(L-1)
        // G(L-1)], with no ReLU after the last layer.
        for (size_t l = 0; l < layers; ++l) {
            const bool last = l + 1 == layers;
            aggregate_pass(Pass{.weight = &weights_[l], .reluOut = !last},
                           last);
        }
    }

    if (breakdown_out != nullptr)
        *breakdown_out = breakdown;
    return logits;
}

} // namespace pgcn::core
